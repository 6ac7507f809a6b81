//! Metering of work and communication, and the PRO cost model.
//!
//! The PRO model (Gebremedhin, Guérin Lassous, Gustedt & Telle, 2002) judges
//! an algorithm by the resources each processor uses relative to the best
//! sequential algorithm: computation time, memory, communication volume and
//! number of supersteps.  Theorem 1 of the permutation paper claims `O(m)`
//! per processor for memory, time, random numbers and bandwidth; Theorem 2
//! claims `Θ(p)` per processor for the cost-optimal matrix sampler.  The
//! simulator's counters below are the observables those claims are checked
//! against in the experiment harness.

use std::time::Duration;

/// Per-processor counters, collected while an algorithm runs on the machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    /// Messages sent by this processor (excluding messages to itself).
    pub messages_sent: u64,
    /// Payload words (elements) sent, including local self-delivery.
    pub words_sent: u64,
    /// Messages received from other processors.
    pub messages_received: u64,
    /// Payload words received, including local self-delivery.
    pub words_received: u64,
    /// Number of barrier synchronisations this processor took part in.
    pub barriers: u64,
    /// Number of supersteps this processor started.
    pub supersteps: u64,
}

impl ProcMetrics {
    /// Adds another metrics record into this one (used when a processor runs
    /// several phases whose metrics were collected separately).
    pub fn merge(&mut self, other: &ProcMetrics) {
        self.messages_sent += other.messages_sent;
        self.words_sent += other.words_sent;
        self.messages_received += other.messages_received;
        self.words_received += other.words_received;
        self.barriers += other.barriers;
        self.supersteps += other.supersteps;
    }

    /// Total communication volume (sent + received words) attributed to this
    /// processor — the "bandwidth" resource of Theorem 1.
    pub fn comm_volume(&self) -> u64 {
        self.words_sent + self.words_received
    }
}

/// Aggregated view over all processors of one run.
///
/// Every job meters two channel planes separately, which is what gives a
/// fused run of Algorithm 1 its per-phase attribution without re-running
/// anything:
///
/// * [`per_proc`](MachineMetrics::per_proc) — the **data plane**, the typed
///   `Vec<T>` payloads of the algorithm proper (for the permutation engine:
///   the `O(m)` item exchange);
/// * [`matrix_plane`](MachineMetrics::matrix_plane) — the **word plane**
///   (`Vec<u64>` envelopes), which the in-context matrix samplers of
///   `cgp-matrix` use for their `O(p)`-sized demand vectors and row
///   scatters.
///
/// The aggregate methods ([`max_comm_volume`](MachineMetrics::max_comm_volume)
/// and friends) keep their historical meaning and read the data plane; the
/// `matrix_*` methods read the word plane.
#[derive(Debug, Clone, Default)]
pub struct MachineMetrics {
    /// The per-processor data-plane records, indexed by processor id.
    pub per_proc: Vec<ProcMetrics>,
    /// The per-processor word-plane (matrix-phase) records, indexed by
    /// processor id.  Empty for runs that never touched the word plane and
    /// for views produced by [`MachineMetrics::matrix_phase`].
    pub matrix_plane: Vec<ProcMetrics>,
    /// Wall-clock time of the whole run (spawn to join).
    pub elapsed: Duration,
}

impl MachineMetrics {
    /// Number of processors that took part in the run.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Sum of words sent over all processors — the total communication
    /// volume of the algorithm.
    pub fn total_words_sent(&self) -> u64 {
        self.per_proc.iter().map(|m| m.words_sent).sum()
    }

    /// Sum of messages over all processors.
    pub fn total_messages(&self) -> u64 {
        self.per_proc.iter().map(|m| m.messages_sent).sum()
    }

    /// Maximum over processors of the communication volume — the balance
    /// criterion looks at this relative to the average.
    pub fn max_comm_volume(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|m| m.comm_volume())
            .max()
            .unwrap_or(0)
    }

    /// Average communication volume per processor.
    pub fn avg_comm_volume(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.per_proc.iter().map(|m| m.comm_volume()).sum::<u64>() as f64
            / self.per_proc.len() as f64
    }

    /// Communication balance factor: max volume / average volume.  `1.0` is
    /// perfectly balanced; the paper's "balance" criterion requires this to
    /// stay bounded by a constant.
    pub fn comm_balance(&self) -> f64 {
        let avg = self.avg_comm_volume();
        if avg == 0.0 {
            1.0
        } else {
            self.max_comm_volume() as f64 / avg
        }
    }

    /// Maximum number of supersteps used by any processor.
    pub fn supersteps(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|m| m.supersteps)
            .max()
            .unwrap_or(0)
    }

    /// Total communication volume (sent + received words) over the word
    /// plane — what the matrix phase of a fused run cost in bandwidth.
    pub fn matrix_volume(&self) -> u64 {
        self.matrix_plane.iter().map(|m| m.comm_volume()).sum()
    }

    /// Maximum number of word-plane supersteps used by any processor — the
    /// number of matrix-phase rounds of a fused run (`⌈log₂ p⌉` for the
    /// parallel samplers, 1 for the head-and-scatter sequential ones).
    pub fn matrix_rounds(&self) -> u64 {
        self.matrix_plane
            .iter()
            .map(|m| m.supersteps)
            .max()
            .unwrap_or(0)
    }

    /// The word-plane (matrix-phase) traffic of this run viewed as its own
    /// [`MachineMetrics`]: `per_proc` of the view holds the word-plane
    /// counters, so all aggregate methods apply to the matrix phase.  This
    /// is what the standalone matrix-sampling wrappers of `cgp-matrix`
    /// return, and what a [`cgp_core`-style] report carries as its
    /// matrix-phase meter.
    ///
    /// [`cgp_core`-style]: self
    pub fn matrix_phase(&self) -> MachineMetrics {
        MachineMetrics {
            per_proc: self.matrix_plane.clone(),
            matrix_plane: Vec::new(),
            elapsed: self.elapsed,
        }
    }
}

/// A simple linear (BSP-style) communication cost model: transferring a
/// message of `k` words costs `latency + k · per_word` time units.
///
/// The PRO model assumes the coarse grained communication cost depends only
/// on `p` and the point-to-point bandwidth; this model lets experiments
/// translate metered volumes into predicted times for machines with different
/// latency/bandwidth ratios, which is how the scaling experiment (E3)
/// extrapolates the shape of the paper's Origin-2000 table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost per message (the BSP latency / overhead `L` contribution).
    pub latency_per_message: f64,
    /// Cost per transferred word (the inverse bandwidth `g`).
    pub time_per_word: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Unit-less defaults: one word costs 1, a message costs as much as
        // 1000 words.  Experiments override these to explore the space.
        CostModel {
            latency_per_message: 1_000.0,
            time_per_word: 1.0,
        }
    }
}

impl CostModel {
    /// Predicted communication time charged to one processor.
    pub fn proc_cost(&self, m: &ProcMetrics) -> f64 {
        self.latency_per_message * (m.messages_sent + m.messages_received) as f64
            + self.time_per_word * m.comm_volume() as f64
    }

    /// Predicted communication makespan: the maximum per-processor cost, as
    /// supersteps end only when the slowest processor is done.
    pub fn makespan(&self, metrics: &MachineMetrics) -> f64 {
        metrics
            .per_proc
            .iter()
            .map(|m| self.proc_cost(m))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> MachineMetrics {
        MachineMetrics {
            per_proc: vec![
                ProcMetrics {
                    messages_sent: 3,
                    words_sent: 100,
                    messages_received: 3,
                    words_received: 90,
                    barriers: 2,
                    supersteps: 2,
                },
                ProcMetrics {
                    messages_sent: 3,
                    words_sent: 110,
                    messages_received: 3,
                    words_received: 120,
                    barriers: 2,
                    supersteps: 2,
                },
            ],
            matrix_plane: vec![
                ProcMetrics {
                    messages_sent: 1,
                    words_sent: 8,
                    messages_received: 0,
                    words_received: 0,
                    barriers: 0,
                    supersteps: 2,
                },
                ProcMetrics {
                    messages_sent: 0,
                    words_sent: 0,
                    messages_received: 1,
                    words_received: 8,
                    barriers: 0,
                    supersteps: 2,
                },
            ],
            elapsed: Duration::from_millis(5),
        }
    }

    #[test]
    fn aggregation() {
        let m = sample_metrics();
        assert_eq!(m.procs(), 2);
        assert_eq!(m.total_words_sent(), 210);
        assert_eq!(m.total_messages(), 6);
        assert_eq!(m.max_comm_volume(), 230);
        assert!((m.avg_comm_volume() - 210.0).abs() < 1e-12);
        assert!((m.comm_balance() - 230.0 / 210.0).abs() < 1e-12);
        assert_eq!(m.supersteps(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProcMetrics {
            messages_sent: 1,
            words_sent: 2,
            messages_received: 3,
            words_received: 4,
            barriers: 5,
            supersteps: 6,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.messages_sent, 2);
        assert_eq!(a.words_received, 8);
        assert_eq!(a.supersteps, 12);
        assert_eq!(a.comm_volume(), 2 * (2 + 4));
    }

    #[test]
    fn cost_model_weights_latency_and_bandwidth() {
        let m = ProcMetrics {
            messages_sent: 2,
            words_sent: 50,
            messages_received: 1,
            words_received: 25,
            ..Default::default()
        };
        let cm = CostModel {
            latency_per_message: 10.0,
            time_per_word: 2.0,
        };
        assert!((cm.proc_cost(&m) - (10.0 * 3.0 + 2.0 * 75.0)).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_max_over_procs() {
        let metrics = sample_metrics();
        let cm = CostModel {
            latency_per_message: 0.0,
            time_per_word: 1.0,
        };
        assert!((cm.makespan(&metrics) - 230.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = MachineMetrics::default();
        assert_eq!(m.max_comm_volume(), 0);
        assert_eq!(m.comm_balance(), 1.0);
        assert_eq!(m.supersteps(), 0);
        assert_eq!(m.matrix_volume(), 0);
        assert_eq!(m.matrix_rounds(), 0);
    }

    #[test]
    fn planes_are_attributed_separately() {
        let m = sample_metrics();
        // Data-plane aggregates ignore the word plane entirely …
        assert_eq!(m.total_words_sent(), 210);
        // … and the matrix methods read only the word plane.
        assert_eq!(m.matrix_volume(), 16);
        assert_eq!(m.matrix_rounds(), 2);
        let phase = m.matrix_phase();
        assert_eq!(phase.per_proc, m.matrix_plane);
        assert!(phase.matrix_plane.is_empty());
        assert_eq!(phase.total_words_sent(), 8);
        assert_eq!(phase.supersteps(), 2);
    }
}
