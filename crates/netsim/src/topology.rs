//! Node and LAN identifiers.

use std::fmt;

/// Identifies a node (device, app, cloud, attacker) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a broadcast domain (a home LAN behind one router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LanId(pub u32);

impl fmt::Display for LanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lan{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_distinctly() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LanId(3).to_string(), "lan3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let set: HashSet<NodeId> = [NodeId(1), NodeId(2), NodeId(1)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }
}
