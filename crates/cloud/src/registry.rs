//! The manufacturer's device registry.
//!
//! IDs are provisioned at manufacture time; the registry also holds the
//! per-device *factory secret* used to model vendor channels the paper's
//! authors could not inspect ("O" cells), and the public keys of the
//! AWS-style reference design.

use std::collections::HashMap;

use rb_wire::ids::DevId;

/// Simulated public-key signature over a device ID; see
/// [`rb_wire::crypto::sign_dev_id`].
pub fn sign(secret: u128, dev_id: &DevId) -> u128 {
    rb_wire::crypto::sign_dev_id(secret, dev_id)
}

/// Per-device manufacturing record.
#[derive(Debug, Clone)]
pub struct DeviceRecord {
    /// The 128-bit factory secret burned in at manufacture (models the
    /// opaque vendor channel).
    pub factory_secret: u128,
    /// Key id + signing secret, when the design provisions a key pair.
    pub key: Option<(u64, u128)>,
}

/// The registry of devices the vendor has manufactured, plus the public
/// keys of the devices that carry a key pair.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: HashMap<DevId, DeviceRecord>,
    keys: HashMap<u64, u128>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Registers a manufactured device.
    pub fn add(&mut self, dev_id: DevId, record: DeviceRecord) {
        if let Some((key_id, secret)) = record.key {
            self.keys.insert(key_id, secret);
        }
        self.devices.insert(dev_id, record);
    }

    /// Whether the ID belongs to a manufactured device.
    pub fn knows(&self, dev_id: &DevId) -> bool {
        self.devices.contains_key(dev_id)
    }

    /// The factory secret of a device.
    pub fn factory_secret(&self, dev_id: &DevId) -> Option<u128> {
        self.devices.get(dev_id).map(|r| r.factory_secret)
    }

    /// Verifies a public-key signature for `key_id` over `dev_id`.
    pub fn verify_signature(&self, key_id: u64, dev_id: &DevId, signature: u128) -> bool {
        match self.keys.get(&key_id) {
            Some(secret) => sign(*secret, dev_id) == signature,
            None => false,
        }
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_wire::ids::MacAddr;

    fn id(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([n, 0, 0, 0, 0, 1]))
    }

    #[test]
    fn add_and_lookup() {
        let mut reg = DeviceRegistry::new();
        assert!(reg.is_empty());
        reg.add(
            id(1),
            DeviceRecord {
                factory_secret: 42,
                key: None,
            },
        );
        assert!(reg.knows(&id(1)));
        assert!(!reg.knows(&id(2)));
        assert_eq!(reg.factory_secret(&id(1)), Some(42));
        assert_eq!(reg.factory_secret(&id(2)), None);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn signature_verification() {
        let mut reg = DeviceRegistry::new();
        let secret = 0xdead_beef_cafe_babe_0123_4567_89ab_cdef;
        reg.add(
            id(1),
            DeviceRecord {
                factory_secret: 1,
                key: Some((7, secret)),
            },
        );
        let sig = sign(secret, &id(1));
        assert!(reg.verify_signature(7, &id(1), sig));
        // Wrong key id, wrong signature, wrong device all fail.
        assert!(!reg.verify_signature(8, &id(1), sig));
        assert!(!reg.verify_signature(7, &id(1), sig ^ 1));
        assert!(!reg.verify_signature(7, &id(2), sig));
    }

    #[test]
    fn signatures_differ_across_devices_and_keys() {
        assert_ne!(sign(1, &id(1)), sign(1, &id(2)));
        assert_ne!(sign(1, &id(1)), sign(2, &id(1)));
    }
}
