//! The evaluated GPM workloads (the paper's applications on the
//! per-figure dataset subsets).

use crate::datasets::DatasetKey;
use fm_pattern::{motifs, Pattern};
use fm_plan::{compile_multi, CompileOptions, ExecutionPlan};

/// Keys of the workloads appearing in Figs. 13–16.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKey {
    /// Triangle counting.
    Tc,
    /// 4-clique listing.
    Cl4,
    /// 5-clique listing.
    Cl5,
    /// Subgraph listing of the 4-cycle.
    Sl4Cycle,
    /// Subgraph listing of the diamond.
    SlDiamond,
    /// 3-motif counting (vertex-induced, multi-pattern).
    Mc3,
}

impl WorkloadKey {
    /// All workloads in figure order.
    pub fn all() -> [WorkloadKey; 6] {
        [
            WorkloadKey::Tc,
            WorkloadKey::Cl4,
            WorkloadKey::Cl5,
            WorkloadKey::Sl4Cycle,
            WorkloadKey::SlDiamond,
            WorkloadKey::Mc3,
        ]
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKey::Tc => "TC",
            WorkloadKey::Cl4 => "4-CL",
            WorkloadKey::Cl5 => "5-CL",
            WorkloadKey::Sl4Cycle => "SL-4cycle",
            WorkloadKey::SlDiamond => "SL-diamond",
            WorkloadKey::Mc3 => "3-MC",
        }
    }

    /// The datasets this workload runs on in Fig. 13 (taken from the
    /// figure's x-axis groups).
    pub fn fig13_datasets(self) -> Vec<DatasetKey> {
        use DatasetKey::*;
        match self {
            WorkloadKey::Tc => vec![As, Mi, Pa, Yo, Lj],
            WorkloadKey::Cl4 => vec![As, Mi, Pa, Yo],
            WorkloadKey::Cl5 => vec![As, Pa],
            WorkloadKey::Sl4Cycle => vec![As, Mi, Pa],
            WorkloadKey::SlDiamond => vec![As, Mi, Pa],
            WorkloadKey::Mc3 => vec![As, Mi, Pa, Yo],
        }
    }

    /// The datasets this workload runs on in Fig. 14 (c-map sweep).
    pub fn fig14_datasets(self) -> Vec<DatasetKey> {
        use DatasetKey::*;
        match self {
            WorkloadKey::Tc => vec![As, Mi, Pa, Yo, Lj],
            WorkloadKey::Cl4 => vec![As, Mi, Pa, Yo],
            WorkloadKey::Cl5 => vec![As, Pa],
            WorkloadKey::Sl4Cycle => vec![As, Mi, Pa],
            WorkloadKey::SlDiamond => vec![As, Mi, Pa],
            WorkloadKey::Mc3 => vec![As, Mi, Pa],
        }
    }
}

impl std::str::FromStr for WorkloadKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tc" => Ok(WorkloadKey::Tc),
            "4cl" | "4-cl" => Ok(WorkloadKey::Cl4),
            "5cl" | "5-cl" => Ok(WorkloadKey::Cl5),
            "sl-4cycle" | "4cycle" => Ok(WorkloadKey::Sl4Cycle),
            "sl-diamond" | "diamond" => Ok(WorkloadKey::SlDiamond),
            "3mc" | "3-mc" => Ok(WorkloadKey::Mc3),
            other => Err(format!("unknown workload: {other}")),
        }
    }
}

/// A ready-to-run workload: patterns plus compile options.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which application this is.
    pub key: WorkloadKey,
    /// The patterns mined.
    pub patterns: Vec<Pattern>,
    /// Compile options (vertex-induced for k-MC).
    pub options: CompileOptions,
}

impl Workload {
    /// Compiles the execution plan (single-pattern workloads go through
    /// [`fm_plan::compile()`] so cliques get the orientation special case).
    pub fn plan(&self) -> ExecutionPlan {
        if self.patterns.len() == 1 {
            fm_plan::compile(&self.patterns[0], self.options)
        } else {
            compile_multi(&self.patterns, self.options)
        }
    }

    /// Plan compiled in AutoMine mode (no symmetry breaking), for the
    /// Table II baseline.
    pub fn automine_plan(&self) -> ExecutionPlan {
        let options = CompileOptions { symmetry: false, orientation: false, ..self.options };
        compile_multi(&self.patterns, options)
    }
}

/// Builds the workload for `key`.
pub fn workload(key: WorkloadKey) -> Workload {
    let (patterns, options) = match key {
        WorkloadKey::Tc => (vec![Pattern::triangle()], CompileOptions::default()),
        WorkloadKey::Cl4 => (vec![Pattern::k_clique(4)], CompileOptions::default()),
        WorkloadKey::Cl5 => (vec![Pattern::k_clique(5)], CompileOptions::default()),
        WorkloadKey::Sl4Cycle => (vec![Pattern::cycle(4)], CompileOptions::default()),
        WorkloadKey::SlDiamond => (vec![Pattern::diamond()], CompileOptions::default()),
        WorkloadKey::Mc3 => (motifs::motifs(3), CompileOptions::induced()),
    };
    Workload { key, patterns, options }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_compile() {
        for key in WorkloadKey::all() {
            let w = workload(key);
            let plan = w.plan();
            assert!(plan.depth() >= 3, "{key:?}");
            let am = w.automine_plan();
            assert!(!am.symmetry);
        }
    }

    #[test]
    fn clique_workloads_orient() {
        assert!(workload(WorkloadKey::Cl4).plan().orientation);
        assert!(workload(WorkloadKey::Tc).plan().orientation);
        assert!(!workload(WorkloadKey::Sl4Cycle).plan().orientation);
    }

    #[test]
    fn mc3_is_induced_multi_pattern() {
        let plan = workload(WorkloadKey::Mc3).plan();
        assert!(plan.induced);
        assert_eq!(plan.patterns.len(), 2);
    }

    #[test]
    fn figure_membership_matches_paper() {
        assert_eq!(WorkloadKey::Tc.fig13_datasets().len(), 5);
        assert_eq!(WorkloadKey::Cl5.fig13_datasets().len(), 2);
        assert_eq!(WorkloadKey::Mc3.fig14_datasets().len(), 3);
    }
}
