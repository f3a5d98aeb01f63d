//! Driver capability descriptors.
//!
//! The paper's central parameterization: *"Optimizations are parameterized by
//! the capabilities of the underlying network drivers"* (abstract). A
//! [`DriverCapabilities`] value is what the optimizer consults before
//! proposing a transfer plan — whether gather/scatter is available and how
//! many entries it takes, whether PIO exists and up to which size, how many
//! virtualization units the NIC exposes, and so on. Plans that exceed these
//! limits are rejected by the driver, so a correct optimizer never emits
//! them.

use simnet::Technology;

/// Static capabilities of one NIC driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriverCapabilities {
    /// Technology family (for reporting and policy selection).
    pub tech: Technology,
    /// Whether programmed-I/O injection is available.
    pub supports_pio: bool,
    /// Whether DMA injection is available.
    pub supports_dma: bool,
    /// Largest message the driver accepts via PIO (e.g. IB "inline" sends).
    pub pio_max_bytes: u64,
    /// Maximum gather-list entries in one DMA descriptor. `1` means the
    /// hardware cannot gather: multi-segment sends must be linearized by
    /// copy first.
    pub max_gather_entries: usize,
    /// Largest single transfer request the driver accepts. Larger messages
    /// must be chunked by the library.
    pub max_packet_bytes: u64,
    /// Number of virtual channels (multiplexing units) the NIC exposes.
    /// The scheduler assigns them to traffic classes (§2).
    pub vchannels: u8,
    /// Driver-suggested eager→rendezvous switch point, in bytes. A hint:
    /// the optimizer's cost model may refine it.
    pub rndv_threshold_hint: u64,
}

impl DriverCapabilities {
    /// True if a gather list of `n` segments can be sent in one DMA request.
    pub fn can_gather(&self, n: usize) -> bool {
        self.supports_dma && n <= self.max_gather_entries
    }

    /// True if a message of `len` bytes may be injected via PIO.
    pub fn can_pio(&self, len: u64) -> bool {
        self.supports_pio && len <= self.pio_max_bytes
    }

    /// Sanity-check internal consistency; returns a description of the
    /// first violation found. Used by driver constructors in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        if !self.supports_pio && !self.supports_dma {
            return Err("driver supports neither PIO nor DMA".into());
        }
        if self.supports_pio && self.pio_max_bytes == 0 {
            return Err("PIO supported but pio_max_bytes == 0".into());
        }
        if self.supports_dma && self.max_gather_entries == 0 {
            return Err("DMA supported but max_gather_entries == 0".into());
        }
        if self.max_packet_bytes == 0 {
            return Err("max_packet_bytes == 0".into());
        }
        if self.vchannels == 0 {
            return Err("vchannels == 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> DriverCapabilities {
        DriverCapabilities {
            tech: Technology::Synthetic,
            supports_pio: true,
            supports_dma: true,
            pio_max_bytes: 4096,
            max_gather_entries: 8,
            max_packet_bytes: 1 << 20,
            vchannels: 4,
            rndv_threshold_hint: 32 << 10,
        }
    }

    #[test]
    fn gather_respects_entry_limit() {
        let c = caps();
        assert!(c.can_gather(1));
        assert!(c.can_gather(8));
        assert!(!c.can_gather(9));
    }

    #[test]
    fn gather_requires_dma() {
        let mut c = caps();
        c.supports_dma = false;
        assert!(!c.can_gather(1));
    }

    #[test]
    fn pio_respects_size_limit() {
        let c = caps();
        assert!(c.can_pio(4096));
        assert!(!c.can_pio(4097));
        let mut no_pio = caps();
        no_pio.supports_pio = false;
        assert!(!no_pio.can_pio(1));
    }

    #[test]
    fn validate_catches_inconsistencies() {
        assert!(caps().validate().is_ok());
        let mut c = caps();
        c.supports_pio = false;
        c.supports_dma = false;
        assert!(c.validate().is_err());
        let mut c = caps();
        c.vchannels = 0;
        assert!(c.validate().is_err());
        let mut c = caps();
        c.supports_dma = true;
        c.max_gather_entries = 0;
        assert!(c.validate().is_err());
    }
}
