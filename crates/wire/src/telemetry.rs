//! Telemetry payloads reported by devices and consumed by users.
//!
//! Attack A1 (data injection and stealing) forges `Status` messages carrying
//! telemetry: the paper's examples are fake power-consumption readings on a
//! smart plug, fake temperature readings cascading into IFTTT-style rules,
//! and exfiltrating the open/close schedule of a smart lock. The frame types
//! here give those attacks concrete payloads.

use std::fmt;

/// One telemetry sample produced by (or forged on behalf of) a device.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryFrame {
    /// Instantaneous power draw of a plug/socket, in milliwatts.
    PowerMilliwatts(u64),
    /// Ambient temperature in milli-degrees Celsius (can be negative).
    TemperatureMilliC(i32),
    /// Relay/switch state of a plug or bulb.
    SwitchState {
        /// Whether the load is powered.
        on: bool,
    },
    /// Brightness of a bulb, 0–100.
    Brightness(u8),
    /// A lock event with its timestamp (simulation ticks).
    LockEvent {
        /// True if the lock engaged, false if it opened.
        locked: bool,
        /// Simulation time of the event.
        at_tick: u64,
    },
    /// Motion detected by a camera.
    Motion {
        /// Detection confidence, 0–100.
        confidence: u8,
    },
    /// Smoke/fire alarm state.
    Alarm {
        /// Whether the alarm is currently triggered.
        triggered: bool,
    },
}

impl TelemetryFrame {
    /// Whether a frame is *alarming* — the kind that triggers rules or user
    /// notifications, which is what makes injection attacks consequential.
    pub fn is_alarming(&self) -> bool {
        match self {
            TelemetryFrame::Alarm { triggered } => *triggered,
            TelemetryFrame::Motion { confidence } => *confidence >= 50,
            TelemetryFrame::TemperatureMilliC(t) => *t >= 60_000 || *t <= -20_000,
            _ => false,
        }
    }

    /// A one-line rendering for traces and tables.
    pub fn describe(&self) -> String {
        match self {
            TelemetryFrame::PowerMilliwatts(mw) => format!("power={}.{:03}W", mw / 1000, mw % 1000),
            TelemetryFrame::TemperatureMilliC(t) => {
                format!("temp={}.{:03}C", t / 1000, (t % 1000).abs())
            }
            TelemetryFrame::SwitchState { on } => {
                format!("switch={}", if *on { "on" } else { "off" })
            }
            TelemetryFrame::Brightness(b) => format!("brightness={b}%"),
            TelemetryFrame::LockEvent { locked, at_tick } => {
                format!(
                    "lock={} @t{at_tick}",
                    if *locked { "locked" } else { "open" }
                )
            }
            TelemetryFrame::Motion { confidence } => format!("motion={confidence}%"),
            TelemetryFrame::Alarm { triggered } => format!("alarm={triggered}"),
        }
    }
}

impl fmt::Display for TelemetryFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A trigger condition for an automation rule (IFTTT-style, paper §V-B:
/// "it will have a cascade effect when data from the device is involved in
/// rules").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleTrigger {
    /// Temperature above a threshold (milli-°C).
    TemperatureAbove(i32),
    /// Temperature below a threshold (milli-°C).
    TemperatureBelow(i32),
    /// Any triggered alarm frame.
    AlarmTriggered,
    /// Motion confidence at or above a threshold.
    MotionAtLeast(u8),
    /// Power draw above a threshold (milliwatts).
    PowerAbove(u64),
}

impl RuleTrigger {
    /// Whether a telemetry frame satisfies the trigger.
    pub fn matches(&self, frame: &TelemetryFrame) -> bool {
        match (self, frame) {
            (RuleTrigger::TemperatureAbove(t), TelemetryFrame::TemperatureMilliC(v)) => v > t,
            (RuleTrigger::TemperatureBelow(t), TelemetryFrame::TemperatureMilliC(v)) => v < t,
            (RuleTrigger::AlarmTriggered, TelemetryFrame::Alarm { triggered }) => *triggered,
            (RuleTrigger::MotionAtLeast(c), TelemetryFrame::Motion { confidence }) => {
                confidence >= c
            }
            (RuleTrigger::PowerAbove(p), TelemetryFrame::PowerMilliwatts(v)) => v > p,
            _ => false,
        }
    }
}

impl fmt::Display for RuleTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleTrigger::TemperatureAbove(t) => {
                write!(f, "temp > {}.{:03}C", t / 1000, (t % 1000).abs())
            }
            RuleTrigger::TemperatureBelow(t) => {
                write!(f, "temp < {}.{:03}C", t / 1000, (t % 1000).abs())
            }
            RuleTrigger::AlarmTriggered => f.write_str("alarm triggered"),
            RuleTrigger::MotionAtLeast(c) => write!(f, "motion >= {c}%"),
            RuleTrigger::PowerAbove(p) => write!(f, "power > {p}mW"),
        }
    }
}

/// A user-configured schedule entry stored cloud-side — the private data the
/// paper's A1 *stealing* variant exfiltrates ("the attacker is able to
/// obtain the opening and closing time of the door").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleEntry {
    /// Tick (simulation time) at which the action fires.
    pub at_tick: u64,
    /// Whether the action turns the device on (unlocks) or off (locks).
    pub turn_on: bool,
}

impl fmt::Display for ScheduleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{}:{}",
            self.at_tick,
            if self.turn_on { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarming_frames_are_classified() {
        assert!(TelemetryFrame::Alarm { triggered: true }.is_alarming());
        assert!(!TelemetryFrame::Alarm { triggered: false }.is_alarming());
        assert!(TelemetryFrame::Motion { confidence: 90 }.is_alarming());
        assert!(!TelemetryFrame::Motion { confidence: 10 }.is_alarming());
        assert!(TelemetryFrame::TemperatureMilliC(70_000).is_alarming());
        assert!(TelemetryFrame::TemperatureMilliC(-25_000).is_alarming());
        assert!(!TelemetryFrame::TemperatureMilliC(21_000).is_alarming());
        assert!(!TelemetryFrame::PowerMilliwatts(1500).is_alarming());
    }

    #[test]
    fn describe_is_compact_and_lossless_enough() {
        assert_eq!(
            TelemetryFrame::PowerMilliwatts(2534).describe(),
            "power=2.534W"
        );
        assert_eq!(
            TelemetryFrame::LockEvent {
                locked: false,
                at_tick: 7
            }
            .describe(),
            "lock=open @t7"
        );
        assert_eq!(
            TelemetryFrame::TemperatureMilliC(-1500).describe(),
            "temp=-1.500C"
        );
    }

    #[test]
    fn rule_triggers_match_the_right_frames() {
        assert!(RuleTrigger::TemperatureAbove(30_000)
            .matches(&TelemetryFrame::TemperatureMilliC(31_000)));
        assert!(!RuleTrigger::TemperatureAbove(30_000)
            .matches(&TelemetryFrame::TemperatureMilliC(30_000)));
        assert!(RuleTrigger::TemperatureBelow(0).matches(&TelemetryFrame::TemperatureMilliC(-1)));
        assert!(RuleTrigger::AlarmTriggered.matches(&TelemetryFrame::Alarm { triggered: true }));
        assert!(!RuleTrigger::AlarmTriggered.matches(&TelemetryFrame::Alarm { triggered: false }));
        assert!(RuleTrigger::MotionAtLeast(50).matches(&TelemetryFrame::Motion { confidence: 50 }));
        assert!(RuleTrigger::PowerAbove(100).matches(&TelemetryFrame::PowerMilliwatts(101)));
        // Cross-kind frames never match.
        assert!(!RuleTrigger::PowerAbove(0).matches(&TelemetryFrame::Brightness(5)));
    }

    #[test]
    fn rule_trigger_display() {
        assert_eq!(
            RuleTrigger::TemperatureAbove(30_500).to_string(),
            "temp > 30.500C"
        );
        assert_eq!(RuleTrigger::MotionAtLeast(7).to_string(), "motion >= 7%");
    }

    #[test]
    fn schedule_entry_display() {
        let e = ScheduleEntry {
            at_tick: 42,
            turn_on: true,
        };
        assert_eq!(e.to_string(), "t42:on");
    }
}
