//! Virtual channel pool management.
//!
//! §1 of the paper: modern NICs "provide transparent multiplexing over a
//! single NIC" via virtualization units. Rather than mapping flows onto
//! channels one-to-one, the scheduler pools them and assigns them to traffic
//! classes dynamically. This module is the bookkeeping for that pool.

use simnet::VChannel;

/// Allocator for one NIC's virtual channels.
///
/// Channel 0 is reserved at construction for the library's control traffic
/// (rendezvous handshakes, acknowledgements); channels 1.. are available
/// for assignment to traffic classes.
#[derive(Clone, Debug)]
pub struct VChannelPool {
    total: u8,
    free: Vec<VChannel>,
    allocated: Vec<bool>,
}

impl VChannelPool {
    /// Pool over a NIC exposing `total` channels (≥ 1). Channel 0 is
    /// pre-allocated for control traffic.
    pub fn new(total: u8) -> Self {
        assert!(total >= 1, "NIC must expose at least one channel");
        let mut allocated = vec![false; total as usize];
        allocated[0] = true;
        VChannelPool {
            total,
            // Stack of free channels, highest first so allocation order is
            // 1, 2, 3, ... (pop from the back).
            free: (1..total).rev().collect(),
            allocated,
        }
    }

    /// Total channels on the NIC.
    pub fn total(&self) -> u8 {
        self.total
    }

    /// Channels currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Allocate a channel, or `None` if the pool is exhausted (callers fall
    /// back to sharing an existing class channel).
    pub fn allocate(&mut self) -> Option<VChannel> {
        let ch = self.free.pop()?;
        self.allocated[ch as usize] = true;
        Some(ch)
    }

    /// Return a channel to the pool.
    ///
    /// # Panics
    /// Panics on double-release or on releasing the control channel —
    /// both indicate scheduler bookkeeping bugs.
    pub fn release(&mut self, ch: VChannel) {
        assert!(ch != 0, "cannot release the control channel");
        assert!(
            (ch as usize) < self.total as usize && self.allocated[ch as usize],
            "release of unallocated channel {ch}"
        );
        self.allocated[ch as usize] = false;
        self.free.push(ch);
    }

    /// Whether a channel is currently allocated.
    pub fn is_allocated(&self, ch: VChannel) -> bool {
        (ch as usize) < self.total as usize && self.allocated[ch as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_zero_reserved_for_control() {
        let p = VChannelPool::new(4);
        assert!(p.is_allocated(0));
        assert_eq!(p.available(), 3);
    }

    #[test]
    fn allocation_order_and_exhaustion() {
        let mut p = VChannelPool::new(4);
        assert_eq!(p.allocate(), Some(1));
        assert_eq!(p.allocate(), Some(2));
        assert_eq!(p.allocate(), Some(3));
        assert_eq!(p.allocate(), None);
    }

    #[test]
    fn release_recycles() {
        let mut p = VChannelPool::new(3);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.release(a);
        assert_eq!(p.available(), 1);
        assert_eq!(p.allocate(), Some(a));
        p.release(b);
        assert!(p.is_allocated(a));
        assert!(!p.is_allocated(b));
    }

    #[test]
    #[should_panic(expected = "unallocated channel")]
    fn double_release_panics() {
        let mut p = VChannelPool::new(3);
        let a = p.allocate().unwrap();
        p.release(a);
        // Second release must panic ("release of unallocated channel").
        p.release(a);
    }

    #[test]
    #[should_panic(expected = "control channel")]
    fn releasing_control_channel_panics() {
        let mut p = VChannelPool::new(3);
        p.release(0);
    }

    #[test]
    fn single_channel_nic_has_no_allocatable_channels() {
        let mut p = VChannelPool::new(1);
        assert_eq!(p.available(), 0);
        assert_eq!(p.allocate(), None);
    }
}
