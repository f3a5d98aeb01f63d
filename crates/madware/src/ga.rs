//! Global-Arrays-style distributed array middleware.
//!
//! The paper cites Global Arrays [5] as one of the single middlewares that
//! used to sit between applications and Madeleine. GA's signature traffic
//! is *strided* one-sided access: a logical 2-D patch maps onto multiple
//! owner nodes and, within each owner, onto non-contiguous rows — exactly
//! the gather/scatter-shaped requests §1 talks about.
//!
//! This module implements a block-row-distributed 2-D `u64` array over
//! [`crate::rma::RmaAgent`]: `put_patch`/`get_patch` decompose a patch into
//! per-owner, per-row RMA operations, and completions are counted so the
//! caller knows when a logical patch operation finished.

use std::cell::RefCell;
use std::rc::Rc;

use madeleine::api::CommApi;
use simnet::NodeId;

use crate::rma::RmaAgent;

/// Row-major 2-D array geometry, block-distributed by rows over nodes
/// `0..owners`.
#[derive(Clone, Copy, Debug)]
pub struct ArraySpec {
    /// Rows in the global array.
    pub rows: u64,
    /// Columns in the global array.
    pub cols: u64,
    /// Number of owner nodes (node `k` owns a contiguous row block).
    pub owners: u32,
    /// RMA window id the array lives in on every owner.
    pub window: u32,
}

impl ArraySpec {
    /// Rows per owner block (last owner may hold fewer).
    pub fn block_rows(&self) -> u64 {
        self.rows.div_ceil(self.owners as u64)
    }

    /// The owner of a global row.
    pub fn owner_of(&self, row: u64) -> u32 {
        debug_assert!(row < self.rows);
        (row / self.block_rows()) as u32
    }

    /// (local row, owner) for a global row.
    pub fn localize(&self, row: u64) -> (u32, u64) {
        let owner = self.owner_of(row);
        (owner, row - owner as u64 * self.block_rows())
    }

    /// Byte offset of `(local_row, col)` within an owner's window.
    pub fn offset(&self, local_row: u64, col: u64) -> u64 {
        (local_row * self.cols + col) * 8
    }
}

/// A pending logical patch operation: remaining row-operations and the
/// assembled data (for gets).
#[derive(Debug)]
pub struct PatchOp {
    /// Row-operations still outstanding.
    pub remaining: u64,
    /// For gets: the patch rows collected so far, keyed by patch-local row.
    pub rows: Vec<Option<Vec<u64>>>,
}

/// Shared completion handle for a patch operation.
pub type PatchHandle = Rc<RefCell<PatchOp>>;

/// Client-side view of one distributed array.
pub struct GlobalArray {
    /// Geometry.
    pub spec: ArraySpec,
}

impl GlobalArray {
    /// New client view.
    pub fn new(spec: ArraySpec) -> Self {
        assert!(spec.rows > 0 && spec.cols > 0 && spec.owners > 0);
        GlobalArray { spec }
    }

    /// One-sided write of a patch (`row0..row0+data.len()` × `col0..col0+w`).
    /// `data[r]` is patch row `r` (length `w`). Returns a handle that
    /// reaches `remaining == 0` when every row landed... for puts the
    /// engine's ordered flows make remote completion implicit, so the
    /// handle completes immediately.
    pub fn put_patch(
        &self,
        agent: &mut RmaAgent,
        api: &mut dyn CommApi,
        row0: u64,
        col0: u64,
        data: &[Vec<u64>],
    ) -> PatchHandle {
        let w = data.first().map(Vec::len).unwrap_or(0) as u64;
        assert!(
            row0 + data.len() as u64 <= self.spec.rows,
            "patch overruns rows"
        );
        assert!(col0 + w <= self.spec.cols, "patch overruns cols");
        for (r, rowdata) in data.iter().enumerate() {
            assert_eq!(rowdata.len() as u64, w, "ragged patch");
            let (owner, local_row) = self.spec.localize(row0 + r as u64);
            let bytes: Vec<u8> = rowdata.iter().flat_map(|x| x.to_le_bytes()).collect();
            agent.put(
                api,
                NodeId(owner),
                self.spec.window,
                self.spec.offset(local_row, col0),
                &bytes,
            );
        }
        Rc::new(RefCell::new(PatchOp {
            remaining: 0,
            rows: Vec::new(),
        }))
    }

    /// One-sided read of an `h × w` patch at `(row0, col0)`. The returned
    /// handle completes (`remaining == 0`) when all rows arrived; `rows`
    /// then holds the patch in order.
    pub fn get_patch(
        &self,
        agent: &mut RmaAgent,
        api: &mut dyn CommApi,
        row0: u64,
        col0: u64,
        h: u64,
        w: u64,
    ) -> PatchHandle {
        assert!(row0 + h <= self.spec.rows && col0 + w <= self.spec.cols);
        let handle = Rc::new(RefCell::new(PatchOp {
            remaining: h,
            rows: (0..h).map(|_| None).collect(),
        }));
        for r in 0..h {
            let (owner, local_row) = self.spec.localize(row0 + r);
            let h2 = handle.clone();
            agent.get(
                api,
                NodeId(owner),
                self.spec.window,
                self.spec.offset(local_row, col0),
                (w * 8) as u32,
                Box::new(move |bytes| {
                    let row: Vec<u64> = bytes
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                        .collect();
                    let mut op = h2.borrow_mut();
                    op.rows[r as usize] = Some(row);
                    op.remaining -= 1;
                }),
            );
        }
        handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rma::RmaServer;
    use madeleine::api::AppDriver;
    use madeleine::harness::{Cluster, ClusterSpec};
    use madeleine::message::DeliveredMessage;
    use simnet::Technology;

    #[test]
    fn geometry_block_distribution() {
        let spec = ArraySpec {
            rows: 10,
            cols: 4,
            owners: 3,
            window: 1,
        };
        assert_eq!(spec.block_rows(), 4);
        assert_eq!(spec.owner_of(0), 0);
        assert_eq!(spec.owner_of(3), 0);
        assert_eq!(spec.owner_of(4), 1);
        assert_eq!(spec.owner_of(9), 2);
        assert_eq!(spec.localize(5), (1, 1));
        assert_eq!(spec.offset(1, 2), (4 + 2) * 8);
    }

    /// Client on the last node: writes a patch spanning two owners, reads
    /// it back, verifies.
    struct GaClient {
        ga: GlobalArray,
        agent: RmaAgent,
        get: Option<PatchHandle>,
        ok: Rc<RefCell<bool>>,
    }

    impl GaClient {
        fn value(r: u64, c: u64) -> u64 {
            r * 1000 + c + 7
        }
    }

    impl AppDriver for GaClient {
        fn on_start(&mut self, api: &mut dyn madeleine::CommApi) {
            // Patch rows 2..6 (crosses the owner-0/owner-1 boundary at 4),
            // cols 1..4.
            let data: Vec<Vec<u64>> = (2..6)
                .map(|r| (1..4).map(|c| GaClient::value(r, c)).collect())
                .collect();
            self.ga.put_patch(&mut self.agent, api, 2, 1, &data);
            // The engine's per-flow ordering makes the follow-up get observe
            // the puts (same flows): issue it immediately.
            self.get = Some(self.ga.get_patch(&mut self.agent, api, 2, 1, 4, 3));
        }
        fn on_message(&mut self, api: &mut dyn madeleine::CommApi, msg: &DeliveredMessage) {
            assert!(self.agent.on_message(api, msg));
            if let Some(h) = &self.get {
                let op = h.borrow();
                if op.remaining == 0 {
                    for (i, row) in op.rows.iter().enumerate() {
                        let row = row.as_ref().expect("complete");
                        let want: Vec<u64> =
                            (1..4).map(|c| GaClient::value(2 + i as u64, c)).collect();
                        assert_eq!(row, &want, "row {i}");
                    }
                    *self.ok.borrow_mut() = true;
                }
            }
        }
    }

    #[test]
    fn strided_patch_spanning_owners_roundtrips() {
        let spec = ArraySpec {
            rows: 8,
            cols: 6,
            owners: 2,
            window: 3,
        };
        let ok = Rc::new(RefCell::new(false));
        let (agent, _) = RmaAgent::new();
        let client = GaClient {
            ga: GlobalArray::new(spec),
            agent,
            get: None,
            ok: ok.clone(),
        };
        let window_bytes = (spec.block_rows() * spec.cols * 8) as usize;
        let (owner0, s0) = RmaServer::new(vec![(3, window_bytes)]);
        let (owner1, s1) = RmaServer::new(vec![(3, window_bytes)]);
        let cluster_spec = ClusterSpec::new(3, vec![Technology::QuadricsElan]);
        let mut c = Cluster::build(
            &cluster_spec,
            vec![
                Some(Box::new(owner0)),
                Some(Box::new(owner1)),
                Some(Box::new(client)),
            ],
        );
        c.drain();
        assert!(*ok.borrow(), "get did not complete or verify");
        assert_eq!(s0.borrow().faults + s1.borrow().faults, 0);
        // The patch spans both owners: each served some rows.
        assert!(s0.borrow().bytes_put_into_us > 0);
        assert!(s1.borrow().bytes_put_into_us > 0);
    }
}
