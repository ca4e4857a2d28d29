//! One runner per measured figure/table of the paper (see the
//! experiment index in `DESIGN.md`).

pub mod ablation;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig27;
pub mod tables;

use crate::report::Table;
use crate::workload::RunScale;
use std::path::PathBuf;

/// Shared context handed to every figure runner.
#[derive(Debug, Clone)]
pub struct FigureCtx {
    /// Workload scale.
    pub scale: RunScale,
    /// Directory for TSV/PPM artifacts.
    pub out_dir: PathBuf,
    /// Seed for dataset generation (fixed for reproducibility).
    pub seed: u64,
}

impl FigureCtx {
    /// Context with the default quick scale writing under
    /// `target/figures`.
    pub fn quick() -> Self {
        Self {
            scale: RunScale::quick(),
            out_dir: PathBuf::from("target/figures"),
            seed: 20200614, // SIGMOD 2020 conference date
        }
    }
}

/// A figure runner: produces one table per panel.
pub type FigureFn = fn(&FigureCtx) -> Vec<Table>;

/// The full registry: `(id, description, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, FigureFn)> {
    vec![
        (
            "fig2",
            "exact vs εKDV vs τKDV color maps (crime)",
            fig2::run,
        ),
        (
            "fig14",
            "εKDV response time vs ε, four datasets",
            fig14::run,
        ),
        (
            "fig15",
            "τKDV response time vs τ, four datasets",
            fig15::run,
        ),
        (
            "fig16",
            "εKDV response time vs resolution, ε = 0.01",
            fig16::run,
        ),
        (
            "fig17",
            "response time vs dataset size (hep), εKDV and τKDV",
            fig17::run,
        ),
        (
            "fig18",
            "bound convergence vs iterations, KARL vs QUAD (home)",
            fig18::run,
        ),
        (
            "fig19",
            "εKDV visualization quality across methods (home)",
            fig19::run,
        ),
        (
            "fig20",
            "progressive framework: avg relative error vs time budget",
            fig20::run,
        ),
        (
            "fig21",
            "QUAD progressive snapshots over five budgets (home)",
            fig21::run,
        ),
        (
            "fig22",
            "εKDV time, triangular & cosine kernels (crime, hep)",
            fig22::run,
        ),
        (
            "fig23",
            "τKDV time, triangular & cosine kernels (crime, hep)",
            fig23::run,
        ),
        (
            "fig24",
            "KDE throughput vs dimensionality via PCA (home, hep)",
            fig24::run,
        ),
        (
            "fig27",
            "exponential kernel: εKDV & τKDV times (crime, hep)",
            fig27::run,
        ),
        (
            "ablation",
            "refinement effort per bound family (mechanism behind Figs 14-18)",
            ablation::run,
        ),
        (
            "table3",
            "refinement running steps (toy example)",
            tables::run_table3,
        ),
        ("table5", "dataset inventory", tables::run_table5),
        ("table6", "method capability matrix", tables::run_table6),
    ]
}

/// A smoke-scale test context writing to its own directory under the
/// system temp dir, removed on drop, so tests never touch the committed
/// `target/figures` outputs.
#[cfg(test)]
pub(crate) struct SmokeCtx(FigureCtx);

#[cfg(test)]
impl FigureCtx {
    pub(crate) fn smoke() -> SmokeCtx {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = format!("kdv-figures-{}-{n}", std::process::id());
        SmokeCtx(FigureCtx {
            scale: RunScale::smoke(),
            out_dir: std::env::temp_dir().join(dir),
            ..FigureCtx::quick()
        })
    }
}

#[cfg(test)]
impl std::ops::Deref for SmokeCtx {
    type Target = FigureCtx;
    fn deref(&self) -> &FigureCtx {
        &self.0
    }
}

#[cfg(test)]
impl Drop for SmokeCtx {
    fn drop(&mut self) {
        // Best effort: a leftover temp dir is not worth a panic in drop.
        let _ = std::fs::remove_dir_all(&self.0.out_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_measured_artifact() {
        let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        for expected in [
            "fig2", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
            "fig22", "fig23", "fig24", "fig27", "ablation", "table3", "table5", "table6",
        ] {
            assert!(ids.contains(&expected), "missing runner for {expected}");
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
