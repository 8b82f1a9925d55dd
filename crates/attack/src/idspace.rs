//! Device-ID inference: leak channels, search spaces, enumeration.
//!
//! The adversary model (Section III-A) assumes the attacker obtains device
//! IDs through two channel families, both modeled here:
//!
//! * **Inference** — brute-force/enumeration "according to the regulation
//!   of ID sequence arrangement": MAC addresses expose their OUI, serials
//!   are sequential, short digit IDs span tiny spaces.
//! * **Off-site physical interaction** — ownership transfer: labels on
//!   devices and boxes, supply-chain copying, purchase-and-return.
//!
//! The quantitative claims reproduced by the `exp_idspace` experiment:
//! "the search space of MAC addresses is often within 3 bytes" and "some
//! device IDs only contain 6 or 7 digits, allowing attackers to traverse
//! all possible IDs within an hour".

use rb_netsim::SimRng;
use rb_wire::ids::{DevId, IdScheme};
use std::collections::HashSet;
use std::fmt;

/// How a device ID leaked to the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakChannel {
    /// Printed on the device itself (6 of the 10 studied devices).
    LabelOnDevice,
    /// Printed on the packaging.
    LabelOnPackaging,
    /// Copied by a supply-chain participant during transport/distribution.
    SupplyChain,
    /// Recorded during a purchase-and-return cycle.
    PurchaseAndReturn,
    /// Observed in the attacker's own device traffic (same product).
    TrafficObservation,
    /// Derived by differential analysis of app messages.
    DifferentialAnalysis,
    /// Guessed by enumerating the ID space remotely.
    RemoteEnumeration,
}

impl fmt::Display for LeakChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LeakChannel::LabelOnDevice => "label on device",
            LeakChannel::LabelOnPackaging => "label on packaging",
            LeakChannel::SupplyChain => "supply chain",
            LeakChannel::PurchaseAndReturn => "purchase and return",
            LeakChannel::TrafficObservation => "traffic observation",
            LeakChannel::DifferentialAnalysis => "differential analysis",
            LeakChannel::RemoteEnumeration => "remote enumeration",
        };
        f.write_str(s)
    }
}

/// The enumeration economics of one ID scheme at one probe rate.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumerationCost {
    /// A human-readable scheme name.
    pub scheme: String,
    /// Total IDs in the space.
    pub search_space: u128,
    /// Probes per second assumed.
    pub probes_per_sec: u64,
    /// Seconds to exhaust the space (`None` if it overflows `f64`
    /// usefully, i.e. effectively forever).
    pub seconds_to_exhaust: Option<f64>,
}

impl EnumerationCost {
    /// Computes the cost of exhausting `scheme` at `probes_per_sec`.
    pub fn of(scheme: &IdScheme, probes_per_sec: u64) -> Self {
        let space = scheme.search_space();
        let name = match scheme {
            IdScheme::MacWithOui { .. } => "MAC (known OUI, 3-byte suffix)".to_owned(),
            IdScheme::SequentialSerial { .. } => "sequential serial (64-bit)".to_owned(),
            IdScheme::ShortDigits { width } => format!("{width}-digit ID"),
            IdScheme::RandomUuid => "random 128-bit ID".to_owned(),
        };
        let seconds = if space > u128::from(u64::MAX) * 1_000_000 {
            None
        } else {
            Some(space as f64 / probes_per_sec as f64)
        };
        EnumerationCost {
            scheme: name,
            search_space: space,
            probes_per_sec,
            seconds_to_exhaust: seconds,
        }
    }

    /// Whether the space is exhaustible within an hour — the paper's
    /// benchmark for "realistically enumerable".
    pub fn within_an_hour(&self) -> bool {
        self.seconds_to_exhaust.is_some_and(|s| s <= 3_600.0)
    }
}

/// Result of a simulated enumeration sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// Probes spent.
    pub probes: u64,
    /// Valid device IDs discovered.
    pub hits: Vec<String>,
}

/// Simulates a *sequential* enumeration sweep: the attacker walks the ID
/// space in allocation order and tests each candidate against the set of
/// manufactured IDs. Returns the discovered IDs.
///
/// For dense schemes (sequential serials, short digits) the hit rate is
/// `population / budget`-bounded; for random UUIDs it is effectively zero —
/// the contrast the `exp_idspace` experiment prints.
pub fn sequential_sweep(
    scheme: &IdScheme,
    population: &HashSet<DevId>,
    probe_budget: u64,
) -> SweepResult {
    let mut hits = Vec::new();
    for i in 0..probe_budget {
        let candidate = scheme.id_at(i);
        if population.contains(&candidate) {
            hits.push(candidate.short());
        }
    }
    SweepResult {
        probes: probe_budget,
        hits,
    }
}

/// Simulates a *random* enumeration sweep (for spaces with no known
/// ordering).
pub fn random_sweep(
    scheme: &IdScheme,
    population: &HashSet<DevId>,
    probe_budget: u64,
    rng: &mut SimRng,
) -> SweepResult {
    let mut hits = Vec::new();
    for _ in 0..probe_budget {
        let idx = rng.next_u64();
        let candidate = scheme.id_at(idx);
        if population.contains(&candidate) {
            hits.push(candidate.short());
        }
    }
    SweepResult {
        probes: probe_budget,
        hits,
    }
}

/// How the paper's authors obtained each vendor's device IDs
/// (Section VI-A: "6 of them directly attach the device IDs on the
/// devices. 5 of them use MAC addresses … For the rest, device IDs can be
/// observed from the traffic or be easily obtained with a differential
/// analysis of the messages.") — the per-vendor channel assignment is an
/// informed reconstruction consistent with those counts and with each
/// vendor's ID scheme.
pub fn vendor_leak_channels(vendor: &str) -> Vec<LeakChannel> {
    match vendor {
        // Label on the unit (and MAC-structured, so also enumerable).
        "Belkin" => vec![LeakChannel::LabelOnDevice],
        "TP-LINK" => vec![LeakChannel::LabelOnDevice, LeakChannel::RemoteEnumeration],
        "D-LINK" => vec![LeakChannel::LabelOnDevice, LeakChannel::RemoteEnumeration],
        "OZWI" => vec![LeakChannel::LabelOnDevice, LeakChannel::RemoteEnumeration],
        "E-Link Smart" => vec![LeakChannel::LabelOnDevice, LeakChannel::RemoteEnumeration],
        "KONKE" => vec![LeakChannel::LabelOnDevice],
        // MAC-as-ID without a printed label: observed from traffic and
        // enumerable through the OUI.
        "BroadLink" => vec![
            LeakChannel::TrafficObservation,
            LeakChannel::RemoteEnumeration,
        ],
        "Orvibo" => vec![
            LeakChannel::TrafficObservation,
            LeakChannel::RemoteEnumeration,
        ],
        "Philips Hue" => vec![
            LeakChannel::TrafficObservation,
            LeakChannel::RemoteEnumeration,
        ],
        // Recovered by differential analysis of app messages.
        "Lightstory" => vec![LeakChannel::DifferentialAnalysis],
        _ => vec![LeakChannel::PurchaseAndReturn, LeakChannel::SupplyChain],
    }
}

/// The standard cost table the `exp_idspace` experiment prints: each
/// studied scheme at several probe rates.
pub fn cost_table() -> Vec<EnumerationCost> {
    let schemes = [
        IdScheme::MacWithOui {
            oui: [0x50, 0xc7, 0xbf],
        },
        IdScheme::ShortDigits { width: 6 },
        IdScheme::ShortDigits { width: 7 },
        IdScheme::SequentialSerial {
            vendor: 1,
            start: 0,
        },
        IdScheme::RandomUuid,
    ];
    let rates = [300u64, 3_000, 30_000];
    let mut out = Vec::new();
    for scheme in &schemes {
        for &rate in &rates {
            out.push(EnumerationCost::of(scheme, rate));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_digit_ids_fall_within_an_hour_at_modest_rates() {
        let six = EnumerationCost::of(&IdScheme::ShortDigits { width: 6 }, 300);
        assert!(six.within_an_hour(), "{:?}", six.seconds_to_exhaust);
        let seven = EnumerationCost::of(&IdScheme::ShortDigits { width: 7 }, 300);
        assert!(!seven.within_an_hour());
        let seven_fast = EnumerationCost::of(&IdScheme::ShortDigits { width: 7 }, 3_000);
        assert!(seven_fast.within_an_hour());
    }

    #[test]
    fn mac_space_is_24_bits_and_hours_scale() {
        let mac = EnumerationCost::of(&IdScheme::MacWithOui { oui: [1, 2, 3] }, 30_000);
        assert_eq!(mac.search_space, 1 << 24);
        let secs = mac.seconds_to_exhaust.unwrap();
        assert!((550.0..=560.0).contains(&secs), "≈559 s: {secs}");
    }

    #[test]
    fn uuid_space_is_effectively_unexhaustible() {
        let uuid = EnumerationCost::of(&IdScheme::RandomUuid, u64::MAX);
        assert_eq!(uuid.seconds_to_exhaust, None);
        assert!(!uuid.within_an_hour());
    }

    #[test]
    fn sequential_sweep_finds_dense_populations() {
        let scheme = IdScheme::ShortDigits { width: 6 };
        let population: HashSet<DevId> = (0..50).map(|i| scheme.id_at(i * 10)).collect();
        let result = sequential_sweep(&scheme, &population, 500);
        assert_eq!(
            result.hits.len(),
            50,
            "all 50 devices found within 500 probes"
        );
    }

    #[test]
    fn random_sweep_never_finds_uuids() {
        let scheme = IdScheme::RandomUuid;
        let population: HashSet<DevId> = (0..100).map(|i| scheme.id_at(1_000_000 + i)).collect();
        let mut rng = SimRng::new(1);
        let result = random_sweep(&scheme, &population, 100_000, &mut rng);
        assert!(result.hits.is_empty());
    }

    #[test]
    fn cost_table_covers_all_schemes_and_rates() {
        let table = cost_table();
        assert_eq!(table.len(), 15);
        assert!(table.iter().any(|c| c.within_an_hour()));
        assert!(table.iter().any(|c| !c.within_an_hour()));
    }

    #[test]
    fn leak_channels_display() {
        assert_eq!(LeakChannel::SupplyChain.to_string(), "supply chain");
        assert_eq!(
            LeakChannel::RemoteEnumeration.to_string(),
            "remote enumeration"
        );
    }

    #[test]
    fn vendor_channel_counts_match_section_vi_a() {
        use rb_core::vendors::vendor_designs;
        let designs = vendor_designs();
        let labels = designs
            .iter()
            .filter(|d| vendor_leak_channels(&d.vendor).contains(&LeakChannel::LabelOnDevice))
            .count();
        assert_eq!(
            labels, 6,
            "6 of them directly attach the device IDs on the devices"
        );
        // Every MAC-scheme vendor is enumerable through its OUI.
        for d in &designs {
            if matches!(d.id_scheme, rb_wire::ids::IdScheme::MacWithOui { .. }) {
                assert!(
                    vendor_leak_channels(&d.vendor).contains(&LeakChannel::RemoteEnumeration),
                    "{}",
                    d.vendor
                );
            }
        }
        // Every vendor has at least one acquisition channel.
        for d in &designs {
            assert!(!vendor_leak_channels(&d.vendor).is_empty(), "{}", d.vendor);
        }
    }
}
