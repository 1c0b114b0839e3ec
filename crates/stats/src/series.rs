//! The telemetry series vocabulary: every series an in-tree publisher
//! emits, with a constant integer id.
//!
//! Publishers hold the constant, records carry it, and the reducers in
//! [`crate::derive`] dispatch on it with an integer `match` — nothing on
//! the publish path compares names. DESIGN.md §7 says what each series
//! means.

/// Index of a telemetry series. The built-in series below have constant
/// ids, so reducers dispatch on an integer `match`; the telemetry layer
/// interns any other name past the end of [`BUILTIN_SERIES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(pub u16);

macro_rules! builtin_series {
    (reduced { $($rid:ident $rname:literal)* } trace_only { $($tid:ident $tname:literal)* }) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u16)]
        enum Builtin { $($rid,)* $($tid),* }
        #[allow(missing_docs)]
        impl SeriesId {
            $(pub const $rid: SeriesId = SeriesId(Builtin::$rid as u16);)*
            $(pub const $tid: SeriesId = SeriesId(Builtin::$tid as u16);)*
        }
        /// Names of the built-in series, indexed by [`SeriesId`].
        pub const BUILTIN_SERIES: &[&str] = &[$($rname,)* $($tname),*];
        const REDUCED: u16 = [$($rname),*].len() as u16;

        impl SeriesId {
            /// The id of a built-in series name, `None` for any other name.
            pub fn builtin(name: &str) -> Option<SeriesId> {
                match name {
                    $($rname => Some(SeriesId::$rid),)*
                    $($tname => Some(SeriesId::$tid),)*
                    _ => None,
                }
            }
        }
    };
}

builtin_series! {
    reduced {
        PERT_SRTT "pert/srtt"
        PERT_QDELAY "pert/qdelay"
        PERT_PROB "pert/prob"
        PERT_RESPONSE "pert/response"
        TRUTH_QDELAY "truth/qdelay"
        TRUTH_PROB "truth/prob"
        LINK_UTIL_BP "link/util_bp"
        LINK_IDLE_WINS "link/idle_wins"
        QUEUE_FINAL_OFFERED "queue/final_offered"
        QUEUE_FINAL_DROPPED "queue/final_dropped"
        QUEUE_FINAL_MARKED "queue/final_marked"
        TCP_ACKED_FINAL "tcp/acked_final"
        CUBIC_W_MAX "cubic/w_max"
        CUBIC_HYSTART_EXIT "cubic/hystart_exit"
        BBR_BTLBW "bbr/btlbw"
        BBR_MIN_RTT "bbr/min_rtt"
        BBR_STATE "bbr/state"
        SHARD_EVENTS "shard/events"
        SHARD_EPOCH_COMPUTE_NS "shard/epoch_compute_ns"
        SHARD_BARRIER_WAIT_NS "shard/barrier_wait_ns"
    }
    trace_only {
        TCP_CWND "tcp/cwnd"
        QUEUE_LEN "queue/len"
        QUEUE_EWMA_LEN "queue/ewma_len"
        RED_AVG "red/avg"
        RED_MAX_P "red/max_p"
        PI_P "pi/p"
        REM_PRICE "rem/price"
        REM_PROB "rem/prob"
        AVQ_VQ "avq/vq"
        AVQ_C_TILDE "avq/c_tilde"
        SHARD_MAILBOX_OUT_PKTS "shard/mailbox_out_pkts"
        SHARD_MAILBOX_IN_PKTS "shard/mailbox_in_pkts"
    }
}

impl SeriesId {
    /// True when some reducer in [`crate::derive`] reads this series;
    /// the others only reach the flight recorder and the trace.
    pub fn is_reduced(self) -> bool {
        self.0 < REDUCED
    }
}
