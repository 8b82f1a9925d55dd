//! Issued `DevToken`s and `BindToken` capabilities.

use std::collections::HashMap;

use rb_netsim::SimRng;
use rb_wire::messages::DenyReason;
use rb_wire::tokens::{BindToken, DevToken, UserId};

/// Tracks which user requested each issued `DevToken` — the linkage that
/// keys a device's cloud session to its legitimate owner and defeats
/// hijack-then-control on `DevToken` designs.
#[derive(Debug, Default)]
pub struct DevTokenLedger {
    issued: HashMap<DevToken, UserId>,
}

impl DevTokenLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DevTokenLedger::default()
    }

    /// Mints a token for `issuer`.
    pub fn issue(&mut self, issuer: UserId, rng: &mut SimRng) -> DevToken {
        let token = DevToken::from_entropy(rng.entropy128());
        self.issued.insert(token, issuer);
        token
    }

    /// Resolves a presented token to its issuing user.
    ///
    /// # Errors
    ///
    /// [`DenyReason::DeviceAuthFailed`] for tokens never issued.
    pub fn verify(&self, token: &DevToken) -> Result<&UserId, DenyReason> {
        self.issued.get(token).ok_or(DenyReason::DeviceAuthFailed)
    }
}

/// Tracks `BindToken` capabilities: issued to a user, consumed exactly once
/// when the device submits them back.
#[derive(Debug, Default)]
pub struct BindTokenLedger {
    issued: HashMap<BindToken, (UserId, bool)>,
}

impl BindTokenLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        BindTokenLedger::default()
    }

    /// Mints a capability for `issuer`.
    pub fn issue(&mut self, issuer: UserId, rng: &mut SimRng) -> BindToken {
        let token = BindToken::from_entropy(rng.entropy128());
        self.issued.insert(token, (issuer, false));
        token
    }

    /// Consumes a capability, returning the user it authorizes.
    ///
    /// # Errors
    ///
    /// [`DenyReason::InvalidBindToken`] for unknown or already-consumed
    /// tokens (single use prevents replay).
    pub fn consume(&mut self, token: &BindToken) -> Result<UserId, DenyReason> {
        match self.issued.get_mut(token) {
            Some((user, consumed @ false)) => {
                *consumed = true;
                Ok(user.clone())
            }
            _ => Err(DenyReason::InvalidBindToken),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dev_tokens_resolve_to_issuer() {
        let mut ledger = DevTokenLedger::new();
        let mut rng = SimRng::new(1);
        let t = ledger.issue(UserId::new("alice"), &mut rng);
        assert_eq!(ledger.verify(&t).unwrap(), &UserId::new("alice"));
        assert!(ledger.verify(&DevToken::from_entropy(99)).is_err());
    }

    #[test]
    fn bind_tokens_are_single_use() {
        let mut ledger = BindTokenLedger::new();
        let mut rng = SimRng::new(1);
        let t = ledger.issue(UserId::new("alice"), &mut rng);
        assert_eq!(ledger.consume(&t).unwrap(), UserId::new("alice"));
        assert_eq!(
            ledger.consume(&t).unwrap_err(),
            DenyReason::InvalidBindToken
        );
        assert_eq!(
            ledger.consume(&BindToken::from_entropy(5)).unwrap_err(),
            DenyReason::InvalidBindToken
        );
    }

    #[test]
    fn tokens_are_unpredictable_across_issues() {
        let mut ledger = DevTokenLedger::new();
        let mut rng = SimRng::new(1);
        let a = ledger.issue(UserId::new("u"), &mut rng);
        let b = ledger.issue(UserId::new("u"), &mut rng);
        assert_ne!(a, b);
    }
}
