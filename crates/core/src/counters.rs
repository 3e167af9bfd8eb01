//! [`RunCounters`], declared once: the table below emits the struct, its
//! snapshot codec and the name/value views the artifact codec loops
//! over. Row order is the artifact's key order and the snapshot's field
//! order.

use tsn_snapshot::{Reader, Snap, SnapError, Writer};

/// `state` rows are part of the world's snapshot stream. `fabric` rows
/// are not: they live in the fabric's own `SnapState` (appended to the
/// world's state only when the fabric is enabled) and are copied in at
/// `finish()` — encoding them here would change the state bytes of every
/// `fabric = None` run.
macro_rules! run_counters {
    ($( $(#[$doc:meta])* $kind:ident $name:ident, )*) => {
        /// Aggregate counters reported after a run.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct RunCounters {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl RunCounters {
            /// `(name, value)` of every counter, in table order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($name), self.$name) ),*].into_iter()
            }

            /// Every counter by name, settable, in table order.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [$( (stringify!($name), &mut self.$name) ),*].into_iter()
            }
        }

        impl Snap for RunCounters {
            fn put(&self, w: &mut Writer) {
                $( run_counters!(@put $kind self.$name, w); )*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                Ok(RunCounters {
                    $( $name: run_counters!(@get $kind r), )*
                })
            }
        }
    };
    (@put state $v:expr, $w:ident) => { $v.put($w) };
    (@put fabric $v:expr, $w:ident) => {};
    (@get state $r:ident) => { Snap::get($r)? };
    (@get fabric $r:ident) => { 0 };
}

run_counters! {
    /// Transmit-timestamp retrieval timeouts across all `ptp4l` masters.
    state tx_timestamp_timeouts,
    /// Sync launch deadline misses.
    state deadline_misses,
    /// Injected fail-silent VM shutdowns.
    state vm_failures,
    /// Injected GM shutdowns (subset of `vm_failures`).
    state gm_failures,
    /// `CLOCK_SYNCTIME` takeovers performed by the monitors.
    state takeovers,
    /// Aggregations executed across all VMs.
    state aggregations,
    /// Intervals skipped for lack of quorum.
    state no_quorum,
    /// Successful attacker strikes.
    state strikes_succeeded,
    /// Failed attacker strikes.
    state strikes_failed,
    /// Frames that had to wait in an egress queue.
    state frames_queued,
    /// Degradation state transitions across all aggregators.
    state sync_transitions,
    /// Total time any aggregator spent in Holdover (ns).
    state holdover_ns,
    /// Total time any aggregator spent in Freerun (ns).
    state freerun_ns,
    /// Active-VM failures the monitors could not cover (no standby).
    state uncovered_failures,
    /// gPTP frames received by a handler with no role for them in the
    /// active configuration (Announce outside election mode).
    state unhandled_frames,
    /// Announce messages originated by acting masters (election mode).
    state announce_tx,
    /// Elected-grandmaster changes observed across all nodes' BMCA
    /// instances (election churn; 0 in a stable run).
    state elected_gm_changes,
    /// Time from the scheduled grandmaster kill to the first replacement
    /// promotion on the killed domain (ns; 0 when no kill happened or
    /// the domain never recovered).
    state reconvergence_ns,
    /// Protected frames forwarded end to end by the multi-hop switch
    /// fabric (0 when the fabric is disabled).
    fabric fabric_frames_forwarded,
    /// Protected frames dropped at a saturated fabric hop.
    fabric fabric_frames_dropped,
    /// Largest accumulated fabric residence observed on one crossing
    /// (ns).
    fabric max_residence_ns,
    /// Largest static directional path asymmetry of the fabric (ns).
    fabric path_asymmetry_ns,
}
