//! §V-C — the scalable binding denial-of-service over a product series.
//!
//! The attacker enumerates the ID space of a product series and occupies
//! every binding before the owners set up. The series runs a vulnerable
//! design (sequential IDs) and the capability-based reference side by
//! side at 1, 2, 4, 8 and 16 homes. `exp_dos_scale` prints it and
//! the `work_counters` test pins its ticks, outcomes and allocations;
//! both call [`dos_scale_series`].

use rb_attack::Adversary;
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_prof::Profiler;
use rb_scenario::WorldBuilder;
use rb_wire::ids::IdScheme;
use rb_wire::messages::{BindPayload, Message, Response};

/// Product-series sizes (homes per design) the series sweeps.
const SERIES_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// The outcome at one series size, for both designs.
#[derive(Clone, Copy, Debug)]
pub struct DosRow {
    /// Homes in the series.
    pub homes: usize,
    /// Vulnerable design: (bindings the attacker occupied, victims locked out).
    pub vulnerable: (usize, usize),
    /// Capability reference: (bindings the attacker occupied, victims locked out).
    pub capability: (usize, usize),
}

/// The two designs the series compares: an OZWI-style camera line with
/// sequential IDs, and the capability-based reference.
pub fn series_designs() -> [VendorDesign; 2] {
    let mut vulnerable = vendors::ozwi();
    vulnerable.id_scheme = IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 0,
    };
    [vulnerable, vendors::capability_reference()]
}

/// Occupies every enumerable device of a series pre-setup, then lets the
/// victims try. Returns (bindings occupied, victims locked out).
pub fn dos_series(
    design: &VendorDesign,
    homes: usize,
    seed: u64,
    profiler: &Profiler,
) -> (usize, usize) {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .homes(homes)
        .victim_paused()
        .with_profiler(profiler.clone())
        .build();
    let mut adv = Adversary::new();
    let token = profiler.enter("dos.enumerate", world.now().as_u64());
    let user_token = adv.login(&mut world);

    // Enumerate the ID space in allocation order (sequential IDs!) and fire
    // a bind for each candidate — the attacker does not even know which IDs
    // were sold.
    let mut occupied = 0;
    let budget = (homes as u64) * 2; // sweep a window of the sequence
    for i in 0..budget {
        let dev_id = design.id_scheme.id_at(i);
        let rsp = adv.request_wait(
            &mut world,
            Message::Bind(BindPayload::AclApp { dev_id, user_token }),
            300,
        );
        if matches!(rsp, Some(Response::Bound { .. })) {
            occupied += 1;
        }
    }
    profiler.exit(token, world.now().as_u64());

    // The victims unbox their devices.
    let token = profiler.enter("dos.victim_setup", world.now().as_u64());
    world.resume_victims();
    world.try_run_setup(150_000);
    let locked_out = (0..homes).filter(|&i| !world.app(i).is_bound()).count();
    profiler.exit(token, world.now().as_u64());
    (occupied, locked_out)
}

/// Runs the whole series under `profiler`: at each size, the vulnerable
/// design then the capability reference (the order and seeds are part of
/// the pinned profile). Each row goes to `on_row` as soon as it is
/// measured.
pub fn dos_scale_series(
    [vulnerable, capability]: &[VendorDesign; 2],
    profiler: &Profiler,
    mut on_row: impl FnMut(DosRow),
) {
    for homes in SERIES_SIZES {
        let vulnerable = dos_series(vulnerable, homes, 7_000 + homes as u64, profiler);
        let capability = dos_series(capability, homes, 9_000 + homes as u64, profiler);
        on_row(DosRow {
            homes,
            vulnerable,
            capability,
        });
    }
}
