//! Error types for recoverable failures.

use crate::kernel::KernelType;
use crate::method::MethodKind;
use std::fmt;

/// Errors surfaced by fallible APIs in this crate.
///
/// Every condition a caller can trigger with external input — bad
/// parameters, malformed datasets, degenerate rasters — maps to a
/// variant here, so the whole query pipeline can refuse gracefully
/// instead of panicking. The remaining panics are internal invariant
/// violations only (see `DESIGN.md`, "Error-handling contract").
#[derive(Debug, Clone, PartialEq)]
pub enum KdvError {
    /// The chosen method cannot answer this query variant (paper
    /// Table 6 — e.g. Scikit and Z-Order do not support τKDV).
    UnsupportedQuery {
        /// Method asked to run.
        method: MethodKind,
        /// `"εKDV"` or `"τKDV"`.
        query: &'static str,
    },
    /// The chosen method cannot run with this kernel (paper §5.1 —
    /// KARL's linear bounds require the Gaussian kernel's squared-
    /// distance argument).
    UnsupportedKernel {
        /// Method asked to run.
        method: MethodKind,
        /// Kernel requested.
        kernel: KernelType,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The dataset contains no points, so no density is defined.
    EmptyDataset,
    /// A coordinate or weight was NaN or ±Inf.
    NonFiniteData {
        /// What was non-finite: `"coordinate"`, `"weight"`, or
        /// `"query coordinate"`.
        what: &'static str,
        /// Index of the offending point (or query axis).
        index: usize,
    },
    /// A query's dimensionality does not match the indexed data.
    DimensionMismatch {
        /// Dimensionality the caller supplied.
        got: usize,
        /// Dimensionality of the indexed points.
        expected: usize,
    },
    /// The requested raster cannot display anything (zero pixels or an
    /// empty/inverted data window).
    DegenerateRaster {
        /// Human-readable description of the violation.
        message: String,
    },
    /// A render worker thread panicked and the sequential retry of its
    /// band panicked again, so no correct output exists for that band.
    WorkerPanicked {
        /// Index of the row band whose retry failed.
        band: usize,
        /// The retry's panic message.
        message: String,
    },
}

impl fmt::Display for KdvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KdvError::UnsupportedQuery { method, query } => {
                write!(f, "method {method:?} does not support {query} queries")
            }
            KdvError::UnsupportedKernel { method, kernel } => {
                write!(
                    f,
                    "method {method:?} does not support the {kernel:?} kernel"
                )
            }
            KdvError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            KdvError::EmptyDataset => write!(f, "dataset contains no points"),
            KdvError::NonFiniteData { what, index } => {
                write!(f, "non-finite {what} at index {index}")
            }
            KdvError::DimensionMismatch { got, expected } => {
                write!(
                    f,
                    "dimension mismatch: query has {got}, data has {expected}"
                )
            }
            KdvError::DegenerateRaster { message } => {
                write!(f, "degenerate raster: {message}")
            }
            KdvError::WorkerPanicked { band, message } => {
                write!(f, "render worker for band {band} panicked twice: {message}")
            }
        }
    }
}

impl KdvError {
    /// Shorthand for an [`KdvError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        KdvError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

impl std::error::Error for KdvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = KdvError::UnsupportedQuery {
            method: MethodKind::Scikit,
            query: "τKDV",
        };
        let s = e.to_string();
        assert!(s.contains("Scikit") && s.contains("τKDV"));
    }

    #[test]
    fn hardening_variants_display_their_context() {
        assert!(KdvError::EmptyDataset.to_string().contains("no points"));
        let s = KdvError::NonFiniteData {
            what: "coordinate",
            index: 7,
        }
        .to_string();
        assert!(s.contains("coordinate") && s.contains('7'), "{s}");
        let s = KdvError::DimensionMismatch {
            got: 3,
            expected: 2,
        }
        .to_string();
        assert!(s.contains('3') && s.contains('2'), "{s}");
        let s = KdvError::WorkerPanicked {
            band: 4,
            message: "boom".into(),
        }
        .to_string();
        assert!(s.contains("band 4") && s.contains("boom"), "{s}");
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&KdvError::InvalidParameter {
            name: "eps",
            message: "must be positive".into(),
        });
    }
}
