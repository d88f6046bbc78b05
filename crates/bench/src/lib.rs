//! # diffserve-bench
//!
//! Experiment harness for the DiffServe reproduction. The `repro` binary
//! runs every paper table, figure and extension experiment
//! (`cargo run -p diffserve-bench --release --bin repro -- [--smoke] [ID…]`);
//! the `perf` binary (`cargo run -p diffserve-bench --release --bin perf`)
//! times the system and writes the `BENCH_sim.json` baseline.
//!
//! An experiment's output is one [`Table`], printed to stdout and written
//! as CSV to `results/<id>.csv` (`results/smoke/<id>.csv` at smoke scale).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::io::Write;
use std::path::Path;

use diffserve_core::CascadeRuntime;
use diffserve_imagegen::{
    cascade1, cascade2, cascade3, CascadeSpec, DiscriminatorConfig, FeatureSpec, TierLadder,
};

/// Standard seed shared by all experiments for reproducibility.
pub const EXPERIMENT_SEED: u64 = 20250509;

/// Number of prompts in the standard evaluation datasets (the paper uses
/// the first 5K text–image pairs).
pub const DATASET_SIZE: usize = 5000;

/// One experiment's output: a header and its rows, printed to stdout and
/// written as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("| {} |", joined.join(" | "));
        };
        line(&self.headers);
        println!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            line(r);
        }
    }

    /// Writes the header and rows as CSV to `path`, creating its parent
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiments should fail loudly.
    pub fn write_csv(&self, path: &Path) {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create results directory");
        }
        let mut f = fs::File::create(path).expect("create csv");
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            writeln!(f, "{}", row.join(",")).expect("write csv row");
        }
    }
}

/// Which paper cascade to prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeId {
    /// SD-Turbo → SDv1.5 (MS-COCO, SLO 5 s).
    One,
    /// SDXS → SDv1.5 (MS-COCO, SLO 5 s).
    Two,
    /// SDXL-Lightning → SDXL (DiffusionDB, SLO 15 s).
    Three,
}

impl CascadeId {
    /// The cascade spec with default feature geometry.
    pub fn spec(self) -> CascadeSpec {
        let fs = FeatureSpec::default();
        match self {
            CascadeId::One => cascade1(fs),
            CascadeId::Two => cascade2(fs),
            CascadeId::Three => cascade3(fs),
        }
    }
}

/// The scale a runtime is prepared at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Standard experiment scale: [`DATASET_SIZE`] prompts and the default
    /// (1K-prompt) discriminator training set.
    Full,
    /// Reduced scale for CI smoke runs, so they spend their time on the
    /// system under test rather than on setup: 1.5K prompts and a
    /// 500-prompt, 10-epoch discriminator.
    Smoke,
}

impl Scale {
    /// Prompts in the evaluation dataset.
    pub fn dataset_size(self) -> usize {
        match self {
            Scale::Full => DATASET_SIZE,
            Scale::Smoke => 1500,
        }
    }

    /// The discriminator training configuration.
    pub fn discriminator(self) -> DiscriminatorConfig {
        match self {
            Scale::Full => DiscriminatorConfig::default(),
            Scale::Smoke => DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        }
    }

    /// Prepares a paper cascade's runtime.
    pub fn runtime(self, id: CascadeId) -> CascadeRuntime {
        CascadeRuntime::prepare(
            id.spec(),
            self.dataset_size(),
            EXPERIMENT_SEED,
            self.discriminator(),
        )
    }

    /// Prepares an N-tier quality-ladder runtime over the same prompt
    /// stream as [`Scale::runtime`], so ladder-vs-cascade comparisons
    /// share it.
    pub fn ladder_runtime(self, ladder: TierLadder) -> CascadeRuntime {
        CascadeRuntime::prepare_ladder(
            ladder,
            self.dataset_size(),
            EXPERIMENT_SEED,
            self.discriminator(),
        )
    }
}

/// Formats a float with 2 decimals (experiment table convention).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_and_writes_its_rows_as_csv() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // must not panic
        let path = std::env::temp_dir()
            .join(format!("diffserve-bench-{}", std::process::id()))
            .join("t.csv");
        t.write_csv(&path);
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn cascade_ids_map_to_specs() {
        assert_eq!(CascadeId::One.spec().name, "sdturbo");
        assert_eq!(CascadeId::Two.spec().name, "sdxs");
        assert_eq!(CascadeId::Three.spec().name, "sdxlltn");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
    }

    #[test]
    fn smoke_scale_prepares_less_than_full_scale() {
        assert_eq!(Scale::Full.dataset_size(), DATASET_SIZE);
        assert!(Scale::Smoke.dataset_size() < Scale::Full.dataset_size());
        let (smoke, full) = (Scale::Smoke.discriminator(), Scale::Full.discriminator());
        assert!(smoke.train_prompts < full.train_prompts);
        assert!(smoke.epochs <= full.epochs);
    }

    #[test]
    fn table_csv_keeps_row_order() {
        let mut t = Table::new(&["id", "v"]);
        for (id, v) in [("b", 2.0), ("a", 1.0)] {
            t.row(vec![id.to_string(), f3(v)]);
        }
        let path = std::env::temp_dir()
            .join(format!("diffserve-bench-order-{}", std::process::id()))
            .join("nested")
            .join("t.csv");
        t.write_csv(&path);
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(path.parent().unwrap().parent().unwrap()).unwrap();
        assert_eq!(text, "id,v\nb,2.000\na,1.000\n");
    }
}
