//! Traffic-class ↔ virtual-channel assignment.
//!
//! §2: a scheduler with global control "may assign some of these resources
//! to different classes of traffic ... and help the receiver in sorting out
//! the incoming packets". Here each rail's virtual channels are assigned to
//! classes; data packets travel on their class's channel, so receivers can
//! demultiplex by hardware channel before touching payload. Channel 0 is
//! always the library's control channel (rendezvous handshakes).

use simnet::VChannel;

use crate::ids::TrafficClass;

/// Per-rail assignment of traffic classes to virtual channels (channel 0
/// stays reserved for the library's control traffic).
#[derive(Clone, Debug)]
pub struct ClassMap {
    vchannels: u8,
    /// Index = class id (clamped into the predefined range).
    assignment: Vec<VChannel>,
}

impl ClassMap {
    /// Default assignment for a NIC exposing `vchannels` channels: class
    /// `k` takes data channel `1 + k % (vchannels - 1)`, so the predefined
    /// classes get channels of their own while there are enough and share
    /// them round-robin when there are not. With a single channel
    /// everything shares channel 0.
    pub fn new(vchannels: u8) -> Self {
        assert!(vchannels >= 1);
        let assignment = (0..TrafficClass::COUNT as u8)
            .map(|k| match vchannels - 1 {
                0 => 0, // single-channel NIC: share the control channel
                data => 1 + k % data,
            })
            .collect();
        ClassMap {
            vchannels,
            assignment,
        }
    }

    /// The control channel (rendezvous, acknowledgements).
    pub fn control(&self) -> VChannel {
        0
    }

    /// Channel assigned to a class.
    pub fn vchan_for(&self, class: TrafficClass) -> VChannel {
        let idx = (class.0 as usize).min(self.assignment.len() - 1);
        self.assignment[idx]
    }

    /// Reassign a class to a channel (dynamic policy changes, §2). Returns
    /// `false` (and leaves the map unchanged) if the channel is out of
    /// range or is the control channel.
    pub fn assign(&mut self, class: TrafficClass, vchan: VChannel) -> bool {
        if vchan == 0 && self.vchannels > 1 {
            return false; // control channel is reserved on multi-channel NICs
        }
        if vchan >= self.vchannels {
            return false;
        }
        let idx = (class.0 as usize).min(self.assignment.len() - 1);
        self.assignment[idx] = vchan;
        true
    }

    /// Collapse every class onto one channel (the "no separation" baseline
    /// for experiment E6).
    pub fn collapse(&mut self) {
        let shared = if self.vchannels == 1 { 0 } else { 1 };
        for a in &mut self.assignment {
            *a = shared;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_separates_classes_when_channels_allow() {
        let m = ClassMap::new(8);
        assert_eq!(m.control(), 0);
        assert_ne!(
            m.vchan_for(TrafficClass::BULK),
            m.vchan_for(TrafficClass::CONTROL)
        );
        assert_ne!(
            m.vchan_for(TrafficClass::DEFAULT),
            m.vchan_for(TrafficClass::PUT_GET)
        );
        // No class sits on the control channel.
        for k in 0..TrafficClass::COUNT as u8 {
            assert_ne!(m.vchan_for(TrafficClass(k)), 0);
        }
    }

    #[test]
    fn scarce_channels_share() {
        let m = ClassMap::new(2);
        // One data channel: everything shares channel 1.
        for k in 0..TrafficClass::COUNT as u8 {
            assert_eq!(m.vchan_for(TrafficClass(k)), 1);
        }
        let m = ClassMap::new(1);
        assert_eq!(m.vchan_for(TrafficClass::BULK), 0);
    }

    #[test]
    fn reassignment_validated() {
        let mut m = ClassMap::new(4);
        assert!(m.assign(TrafficClass::BULK, 3));
        assert_eq!(m.vchan_for(TrafficClass::BULK), 3);
        assert!(!m.assign(TrafficClass::BULK, 0), "control channel reserved");
        assert!(!m.assign(TrafficClass::BULK, 9), "out of range");
        assert_eq!(m.vchan_for(TrafficClass::BULK), 3);
    }

    #[test]
    fn collapse_merges_all_classes() {
        let mut m = ClassMap::new(8);
        m.collapse();
        assert_eq!(
            m.vchan_for(TrafficClass::BULK),
            m.vchan_for(TrafficClass::CONTROL)
        );
        assert_eq!(
            m.vchan_for(TrafficClass::DEFAULT),
            m.vchan_for(TrafficClass::PUT_GET)
        );
    }
}
