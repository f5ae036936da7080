//! Listing-style pretty printing of execution plans.
//!
//! Reproduces the textual IR of the paper's Listing 1 / Listing 2: a
//! `vertex:` section with one `pruneBy` line per plan node and an
//! `embedding:` section showing the dependency chain/tree.

use crate::counting::{CountRule, Survivors};
use crate::ir::{ExecutionPlan, Extender, FrontierHint, PlanNode};
use crate::lowering::Program;
use std::fmt;

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vertex:")?;
        let names = vertex_names(self.root.iter().map(|n| n.op.depth));
        write_vertex_section(f, &self.root, &names, &mut 0)?;
        writeln!(f, "embedding:")?;
        let mut counter = 0usize;
        write_embedding_section(f, &self.root, None, &mut counter, &names, self)?;
        if self.orientation {
            writeln!(f, "directive: orient data graph into a DAG (k-clique)")?;
        }
        if self.induced {
            writeln!(f, "directive: vertex-induced matching")?;
        }
        Ok(())
    }
}

/// Display names for nodes given by depth in DFS order: `v{depth}`
/// normally; `v{depth}{ordinal}` when siblings diverge at the same depth
/// (Listing 2's `v31`, `v32`).
fn vertex_names(depths: impl Iterator<Item = usize>) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for depth in depths {
        let base = format!("v{depth}");
        let taken = names.iter().filter(|n| n.starts_with(&base)).count();
        names.push(if taken == 0 { base } else { format!("{base}{}", taken + 1) });
    }
    names
}

/// The count-only decisions of a lowered program whose rules
/// [`count_leaves`](crate::counting::count_leaves) has decided: one
/// `count: … → leaf` line per leaf a count-only run does not walk, in the
/// vertex names the plan's own listing uses (a program keeps its plan's
/// DFS order); nothing for leaves that are scanned or entered. `prefix` is
/// the previous level's core below the op's bound.
pub fn count_listing(prog: &Program) -> String {
    let names = vertex_names(prog.nodes.iter().map(|n| n.depth));
    let mut out = String::new();
    for (i, node) in prog.nodes.iter().enumerate() {
        let line = match node.count {
            CountRule::Enumerate => continue,
            CountRule::PairJoin { leaf } => {
                let y = node.children[0];
                format!("pair-join {},{} → {} (count map)", names[i], names[y], names[leaf])
            }
            CountRule::Tail { leaf, k, survivors } => {
                let merged = || format!("|prefix ∩ v{}.N|", node.depth - 1);
                let m = match survivors {
                    Survivors::Scan => continue, // walked, like an entered leaf
                    Survivors::Search => format!("|core({})|", names[i]),
                    Survivors::Intersect => merged(),
                    Survivors::Difference => format!("|prefix| − {}", merged()),
                };
                let count = if k == 1 { m } else { format!("choose({m}, {k})") };
                format!("{count} → {}", names[leaf])
            }
        };
        out.push_str("count: ");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn write_vertex_section(
    f: &mut fmt::Formatter<'_>,
    node: &PlanNode,
    names: &[String],
    next: &mut usize,
) -> fmt::Result {
    let name = &names[*next];
    *next += 1;

    let op = &node.op;
    let source = match op.extender {
        Extender::Root => "V".to_string(),
        Extender::Level(l) => format!("v{l}.N"),
    };
    let bound = if op.upper_bounds.is_empty() {
        "∞".to_string()
    } else {
        let parts: Vec<String> = op.upper_bounds.iter().map(|l| format!("v{l}.id")).collect();
        parts.join(" min ")
    };
    let conn: Vec<String> = op.connected.iter().map(|l| format!("v{l}")).collect();
    write!(f, "  {name} ∈ {source} pruneBy({bound}, {{{}}})", conn.join(","))?;
    if !op.disconnected.is_empty() {
        let disc: Vec<String> = op.disconnected.iter().map(|l| format!("v{l}")).collect();
        write!(f, " notAdj({{{}}})", disc.join(","))?;
    }
    match op.frontier {
        FrontierHint::None => {}
        FrontierHint::Reuse => write!(f, " [frontier:reuse]")?,
        FrontierHint::Extend => write!(f, " [frontier:extend]")?,
        FrontierHint::ExtendDiff => write!(f, " [frontier:extend-diff]")?,
    }
    if node.cmap_insert {
        match node.cmap_insert_bound {
            Some(l) => write!(f, " [cmap:insert<v{l}.id]")?,
            None => write!(f, " [cmap:insert]")?,
        }
    }
    writeln!(f)?;
    for child in &node.children {
        write_vertex_section(f, child, names, next)?;
    }
    Ok(())
}

fn write_embedding_section(
    f: &mut fmt::Formatter<'_>,
    node: &PlanNode,
    parent_emb: Option<usize>,
    counter: &mut usize,
    names: &[String],
    plan: &ExecutionPlan,
) -> fmt::Result {
    let my_emb = *counter;
    let name = &names[my_emb];
    *counter += 1;
    match parent_emb {
        None => writeln!(f, "  emb{my_emb} := {name}")?,
        Some(p) => writeln!(f, "  emb{my_emb} := emb{p} + {name}")?,
    }
    if let Some(pi) = node.pattern_index {
        writeln!(f, "    → matches pattern {} ({})", pi, plan.patterns[pi].name)?;
    }
    for child in &node.children {
        write_embedding_section(f, child, Some(my_emb), counter, names, plan)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::count_listing;
    use crate::compile::{compile, compile_multi, CompileOptions};
    use crate::counting::{count_leaves, CountOptions};
    use crate::lowering::{lower, LowerOptions};
    use fm_pattern::Pattern;

    fn counting(p: &Pattern, options: CompileOptions) -> String {
        let mut prog = lower(&compile(p, options), LowerOptions::default());
        count_leaves(&mut prog, CountOptions { closed_forms: true });
        count_listing(&prog)
    }

    #[test]
    fn count_listing_names_each_closed_form() {
        let d = CompileOptions::default();
        assert_eq!(counting(&Pattern::cycle(4), d), "count: pair-join v1,v2 → v3 (count map)\n");
        assert_eq!(counting(&Pattern::diamond(), d), "count: choose(|prefix ∩ v1.N|, 2) → v3\n");
        assert_eq!(counting(&Pattern::star(3), d), "count: choose(|core(v1)|, 3) → v3\n");
        assert_eq!(counting(&Pattern::triangle(), d), "count: |prefix ∩ v1.N| → v2\n");
        assert_eq!(
            counting(&Pattern::wedge(), CompileOptions::induced()),
            "count: |prefix| − |prefix ∩ v1.N| → v2\n"
        );
        // Leaves that are walked say nothing.
        for p in [Pattern::cycle(5), Pattern::house()] {
            assert_eq!(counting(&p, d), "");
        }
        assert_eq!(counting(&Pattern::cycle(4), CompileOptions::induced()), "");
        assert_eq!(counting(&Pattern::cycle(4), CompileOptions::automine()), "");
    }

    #[test]
    fn count_listing_uses_the_plans_branch_names() {
        let plan = compile_multi(&fm_pattern::motifs::motifs(3), CompileOptions::induced());
        let mut prog = lower(&plan, LowerOptions::default());
        count_leaves(&mut prog, CountOptions { closed_forms: true });
        assert_eq!(
            count_listing(&prog),
            "count: |prefix| − |prefix ∩ v1.N| → v2\ncount: |prefix ∩ v1.N| → v22\n"
        );
        assert!(plan.to_string().contains("  v22 ∈ v1.N"), "{plan}");
    }

    #[test]
    fn four_cycle_listing() {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let text = plan.to_string();
        assert!(text.contains("vertex:"), "{text}");
        assert!(text.contains("v0 ∈ V pruneBy(∞, {})"), "{text}");
        assert!(text.contains("v1 ∈ v0.N pruneBy(v0.id, {})"), "{text}");
        assert!(text.contains("v2 ∈ v0.N pruneBy(v1.id, {})"), "{text}");
        assert!(text.contains("v3 ∈ v2.N pruneBy(v0.id, {v1})"), "{text}");
        assert!(text.contains("emb1 := emb0 + v1"), "{text}");
        assert!(text.contains("matches pattern 0 (4-cycle)"), "{text}");
        // §VI-B insertion hint on v1.
        assert!(text.contains("[cmap:insert<v0.id]"), "{text}");
    }

    #[test]
    fn multi_pattern_listing_disambiguates_branches() {
        let plan = compile_multi(
            &[Pattern::diamond(), Pattern::tailed_triangle()],
            CompileOptions::default(),
        );
        let text = plan.to_string();
        // Two level-3 siblings get distinct names (paper's v31/v32 style).
        assert!(text.contains("v3 "), "{text}");
        assert!(text.contains("v32 "), "{text}");
        assert!(text.contains("matches pattern 0 (diamond)"), "{text}");
        assert!(text.contains("matches pattern 1 (tailed-triangle)"), "{text}");
    }

    #[test]
    fn directives_are_printed() {
        let clique = compile(&Pattern::k_clique(4), CompileOptions::default());
        assert!(clique.to_string().contains("orient data graph"));
        let motif = compile_multi(&fm_pattern::motifs::motifs(3), CompileOptions::induced());
        assert!(motif.to_string().contains("vertex-induced"));
    }
}
