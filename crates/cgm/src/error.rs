//! Error type for the coarse grained machine simulator.

use std::fmt;

/// Errors raised by the CGM simulator and by algorithms running on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgmError {
    /// A processor index was outside `0..p`.
    InvalidProcessor {
        /// The offending index.
        proc: usize,
        /// The number of processors in the machine.
        procs: usize,
    },
    /// The machine was configured with zero processors.
    NoProcessors,
    /// Block sizes do not describe the data they are supposed to describe
    /// (e.g. source and target distributions disagree on the total).
    BlockMismatch {
        /// Total number of items on the source side.
        source_total: u64,
        /// Total number of items on the target side.
        target_total: u64,
    },
    /// A receive could not be matched because the sending processor has
    /// terminated without sending (the channel is closed).
    ChannelClosed {
        /// The processor we expected a message from.
        from: usize,
    },
    /// A virtual processor panicked; the payload is its panic message.
    ProcessorPanicked {
        /// The processor that panicked.
        proc: usize,
        /// The textual panic message, if it was a string.
        message: String,
    },
    /// The operating system refused to spawn a worker thread.
    WorkerSpawnFailed {
        /// The virtual processor (or service executor) whose thread could
        /// not be spawned.
        proc: usize,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for CgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgmError::InvalidProcessor { proc, procs } => {
                write!(
                    f,
                    "processor index {proc} out of range (machine has {procs})"
                )
            }
            CgmError::NoProcessors => write!(f, "a CGM machine needs at least one processor"),
            CgmError::BlockMismatch {
                source_total,
                target_total,
            } => write!(
                f,
                "source blocks hold {source_total} items but target blocks hold {target_total}"
            ),
            CgmError::ChannelClosed { from } => {
                write!(
                    f,
                    "processor {from} terminated before sending an expected message"
                )
            }
            CgmError::ProcessorPanicked { proc, message } => {
                write!(f, "virtual processor {proc} panicked: {message}")
            }
            CgmError::WorkerSpawnFailed { proc, message } => {
                write!(
                    f,
                    "could not spawn the worker thread for virtual processor {proc}: {message}"
                )
            }
        }
    }
}

impl std::error::Error for CgmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CgmError::InvalidProcessor { proc: 9, procs: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = CgmError::BlockMismatch {
            source_total: 10,
            target_total: 12,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&CgmError::NoProcessors);
    }
}
