//! Canonical pre-solutions and the chase (Section 6.1).
//!
//! For fully-specified STDs, the tractable query-answering algorithm
//! proceeds in two steps:
//!
//! 1. build the **canonical pre-solution** `cps(T)`: evaluate every STD's
//!    source pattern over the source tree and, for each match, instantiate
//!    the target pattern (inventing fresh nulls for target-only variables),
//!    merging all the instantiations at a single root;
//! 2. **chase** the pre-solution with the repairing functions `ChangeAtt`
//!    (add missing attributes as fresh nulls / fail on disallowed ones) and
//!    `ChangeReg` (extend or merge children so every node's child multiset
//!    falls into the permutation language of its content model), until the
//!    tree weakly conforms to the target DTD or an unrepairable violation is
//!    found.
//!
//! For univocal target DTDs the result — the **canonical solution** — is a
//! solution into which every other solution receives a homomorphism
//! (Lemma 6.15), so evaluating a query over it yields exactly the certain
//! answers (Lemma 6.5). When no canonical solution exists, no solution
//! exists at all.

use crate::setting::{DataExchangeSetting, Std};
use std::collections::BTreeMap;
use std::fmt;
use xdx_patterns::eval::{all_matches_reference, holds_reference, Assignment};
use xdx_patterns::{LabelTest, Term, TreePattern};
use xdx_relang::repair::{RepairConfig, RepairContext};
use xdx_xmltree::{AttrName, ElementType, NodeId, NullGen, Value, XmlTree};

/// Errors raised while building canonical (pre-)solutions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolutionError {
    /// An STD's target pattern is not fully specified (Definition 5.10); the
    /// canonical pre-solution is only defined for fully-specified STDs.
    NotFullySpecified {
        /// Index of the offending STD.
        std_index: usize,
    },
    /// A node's attribute is forced by the STDs but not allowed by the
    /// target DTD (`ChangeAtt` fails).
    DisallowedAttribute {
        /// The element type of the node.
        element: ElementType,
        /// The offending attribute.
        attr: AttrName,
    },
    /// Two nodes that must be merged carry distinct constants for the same
    /// attribute (`ChangeReg` fails).
    AttributeClash {
        /// The element type of the merged nodes.
        element: ElementType,
        /// The attribute with conflicting constants.
        attr: AttrName,
        /// The two clashing constant values.
        values: (String, String),
    },
    /// A node's children multiset admits no repair into the content model
    /// (`rep(w, r) = ∅`).
    NoRepair {
        /// The element type of the node.
        element: ElementType,
    },
    /// `rep(w, r)` has no ⊑_w-maximum: the target DTD is not univocal at this
    /// content model, so the chase cannot proceed canonically
    /// (Definition 6.9).
    NoMaximumRepair {
        /// The element type of the node.
        element: ElementType,
    },
    /// The target pattern mentions an element type the target DTD does not
    /// declare, so no conforming tree can contain the forced node.
    UnknownTargetElement {
        /// The unknown element type.
        element: ElementType,
    },
    /// A wildcard occurs in a target pattern; instantiation needs concrete
    /// element types.
    WildcardInTarget {
        /// Index of the offending STD.
        std_index: usize,
    },
    /// The chase exceeded its iteration budget (only possible when the
    /// target DTD has unsatisfiable element types, which consistent DTDs —
    /// assumed throughout the paper — do not have).
    ChaseBudgetExceeded {
        /// The number of chase steps performed before giving up.
        steps: usize,
    },
    /// The repair enumeration exceeded its internal budget.
    RepairBudgetExceeded {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for SolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolutionError::NotFullySpecified { std_index } => {
                write!(f, "STD #{std_index} is not fully specified")
            }
            SolutionError::DisallowedAttribute { element, attr } => {
                write!(
                    f,
                    "attribute {attr} is forced on {element} but not allowed by the target DTD"
                )
            }
            SolutionError::AttributeClash {
                element,
                attr,
                values,
            } => write!(
                f,
                "merging {element} nodes clashes on {attr}: {:?} vs {:?}",
                values.0, values.1
            ),
            SolutionError::NoRepair { element } => {
                write!(
                    f,
                    "the children of a {element} node cannot be repaired into its content model"
                )
            }
            SolutionError::NoMaximumRepair { element } => write!(
                f,
                "the content model of {element} is not univocal: repairs have no maximum"
            ),
            SolutionError::UnknownTargetElement { element } => {
                write!(
                    f,
                    "target patterns force element type {element}, unknown to the target DTD"
                )
            }
            SolutionError::WildcardInTarget { std_index } => {
                write!(f, "STD #{std_index} uses a wildcard in its target pattern")
            }
            SolutionError::ChaseBudgetExceeded { steps } => {
                write!(f, "the chase did not terminate within {steps} steps")
            }
            SolutionError::RepairBudgetExceeded { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SolutionError {}

/// Build the canonical pre-solution `cps(T)` for a source tree (Section 6.1).
///
/// Requires every STD's target pattern to be fully specified. Fresh nulls are
/// drawn from `nulls`.
///
/// Runs on the compiled fast path (a [`crate::compiled::CompiledSetting`] is
/// built for the call); when processing many documents against one setting,
/// hold a `CompiledSetting` and call its methods instead. The original
/// implementation is kept as [`canonical_presolution_reference`].
pub fn canonical_presolution(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    nulls: &mut NullGen,
) -> Result<XmlTree, SolutionError> {
    crate::compiled::CompiledSetting::new(setting).canonical_presolution(source_tree, nulls)
}

/// Reference implementation of [`canonical_presolution`] (per-call pattern
/// evaluation, `Vec`-scan deduplication).
pub fn canonical_presolution_reference(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    nulls: &mut NullGen,
) -> Result<XmlTree, SolutionError> {
    let root_type = setting.target_dtd.root().clone();
    let mut tree = XmlTree::new(root_type.clone());
    for (std_index, std) in setting.stds.iter().enumerate() {
        if std.target.uses_wildcard() {
            return Err(SolutionError::WildcardInTarget { std_index });
        }
        if !std.target.is_fully_specified(&root_type) {
            return Err(SolutionError::NotFullySpecified { std_index });
        }
        let shared = std.shared_vars();
        // Deduplicate matches on the shared variables: instantiations that
        // differ only in source-only variables produce homomorphically
        // equivalent fragments.
        let mut seen: Vec<Assignment> = Vec::new();
        for assignment in all_matches_reference(source_tree, &std.source) {
            let restricted: Assignment = assignment
                .into_iter()
                .filter(|(v, _)| shared.contains(v))
                .collect();
            if seen.contains(&restricted) {
                continue;
            }
            seen.push(restricted.clone());
            instantiate_target(&mut tree, std, &restricted, nulls)?;
        }
    }
    Ok(tree)
}

/// Instantiate one STD's target pattern under `assignment` (shared variables)
/// and graft it below the pre-solution root, inventing fresh nulls for
/// target-only variables. Shared with the compiled path.
pub(crate) fn instantiate_target(
    tree: &mut XmlTree,
    std: &Std,
    assignment: &Assignment,
    nulls: &mut NullGen,
) -> Result<(), SolutionError> {
    let target_only: Vec<xdx_patterns::Var> = std.target_only_vars().into_iter().collect();
    instantiate_target_with(tree, &std.target, &target_only, assignment, nulls)
}

/// As [`instantiate_target`], with the target-only variable set precomputed —
/// the compiled path caches it per STD instead of re-deriving it (two
/// pattern walks plus set algebra) on every instantiation.
pub(crate) fn instantiate_target_with(
    tree: &mut XmlTree,
    target: &TreePattern,
    target_only: &[xdx_patterns::Var],
    assignment: &Assignment,
    nulls: &mut NullGen,
) -> Result<(), SolutionError> {
    // One fresh null per target-only variable per instantiation.
    let mut values: BTreeMap<_, Value> = assignment
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for var in target_only {
        values
            .entry(var.clone())
            .or_insert_with(|| nulls.fresh_value());
    }
    // The target pattern is r[ϕ1, …, ϕk]; the pre-solution root plays the
    // role of r, and each ϕi becomes a fresh subtree under it.
    let TreePattern::Node { attr: _, children } = target else {
        unreachable!("fully-specified patterns are Node-rooted");
    };
    let root = tree.root();
    for child in children {
        build_instance(tree, root, child, &values)?;
    }
    Ok(())
}

fn build_instance(
    tree: &mut XmlTree,
    parent: NodeId,
    pattern: &TreePattern,
    values: &BTreeMap<xdx_patterns::Var, Value>,
) -> Result<(), SolutionError> {
    let TreePattern::Node { attr, children } = pattern else {
        unreachable!("fully-specified patterns contain no descendant steps");
    };
    let LabelTest::Element(label) = &attr.label else {
        unreachable!("fully-specified patterns contain no wildcards");
    };
    let node = tree.add_child(parent, label.clone());
    for binding in &attr.bindings {
        let value = match &binding.term {
            Term::Const(c) => Value::constant(c),
            Term::Var(v) => values
                .get(v)
                .cloned()
                .expect("every target variable is shared or target-only"),
        };
        tree.set_attr(node, binding.attr.clone(), value);
    }
    for child in children {
        build_instance(tree, node, child, values)?;
    }
    Ok(())
}

/// Run the chase of Section 6.1 (`ChangeAtt` / `ChangeReg`) on `tree` until
/// it weakly conforms to the target DTD or fails.
///
/// Runs on the compiled fast path — a worklist (dirty-queue) chase that
/// re-checks only the nodes a repair actually touched; the original
/// restart-the-world implementation is kept as [`chase_reference`] and
/// frozen as the differential oracle.
pub fn chase(
    tree: &mut XmlTree,
    setting: &DataExchangeSetting,
    nulls: &mut NullGen,
) -> Result<(), SolutionError> {
    crate::compiled::CompiledSetting::new(setting).chase(tree, nulls)
}

/// The default chase step budget for a tree that starts at `tree_size`
/// nodes. Only unsatisfiable target element types (which consistent DTDs do
/// not have) can exhaust it; both chase implementations use this formula.
pub fn chase_budget(tree_size: usize) -> usize {
    100_000usize.max(100 * tree_size)
}

/// Reference implementation of [`chase`] (rebuilds repair contexts per call,
/// re-snapshots the node list and restarts its scan after every repair).
pub fn chase_reference(
    tree: &mut XmlTree,
    setting: &DataExchangeSetting,
    nulls: &mut NullGen,
) -> Result<(), SolutionError> {
    let budget = chase_budget(tree.size());
    chase_reference_with_budget(tree, setting, nulls, budget)
}

/// As [`chase_reference`] with an explicit step budget (one full scan is one
/// step) — a testing hook so the differential harness can drive both chase
/// implementations into `ChaseBudgetExceeded` without 100 000-step runs.
pub fn chase_reference_with_budget(
    tree: &mut XmlTree,
    setting: &DataExchangeSetting,
    nulls: &mut NullGen,
    budget: usize,
) -> Result<(), SolutionError> {
    let dtd = &setting.target_dtd;
    let mut repair_contexts: BTreeMap<ElementType, RepairContext<ElementType>> = BTreeMap::new();
    let repair_config = RepairConfig::default();
    let mut steps = 0usize;

    'outer: loop {
        steps += 1;
        if steps > budget {
            return Err(SolutionError::ChaseBudgetExceeded { steps });
        }
        let nodes = tree.nodes();
        let mut changed = false;
        for node in nodes {
            let label = tree.label(node).clone();
            if !dtd.has_element(&label) {
                return Err(SolutionError::UnknownTargetElement { element: label });
            }
            // --- ChangeAtt -------------------------------------------------
            let allowed = dtd.attrs_of(&label);
            // The disallowed-attribute check never mutates, so the keys can
            // be read straight off the `BTreeMap` (no per-scan clone).
            for attr in tree.attrs(node).keys() {
                if !allowed.contains(attr) {
                    return Err(SolutionError::DisallowedAttribute {
                        element: label.clone(),
                        attr: attr.clone(),
                    });
                }
            }
            for attr in &allowed {
                if tree.attr(node, attr).is_none() {
                    tree.set_attr(node, attr.clone(), nulls.fresh_value());
                    changed = true;
                }
            }
            // --- ChangeReg -------------------------------------------------
            let child_counts = children_multiset(tree, node);
            // The cached context may lack symbols forced by the STDs but
            // absent from the content model; (re)build when needed.
            let needs_rebuild = match repair_contexts.get(&label) {
                Some(ctx) => child_counts
                    .keys()
                    .any(|k| ctx.alphabet().index(k).is_none()),
                None => true,
            };
            if needs_rebuild {
                repair_contexts.insert(
                    label.clone(),
                    RepairContext::new(&dtd.rule(&label), child_counts.keys().cloned()),
                );
            }
            let ctx = repair_contexts.get(&label).expect("context ensured above");
            if ctx.perm_contains(&child_counts) {
                continue;
            }
            let maximum = match ctx.maximum_repair(&child_counts, &repair_config) {
                Ok(m) => m,
                Err(e) => {
                    return Err(SolutionError::RepairBudgetExceeded {
                        message: e.to_string(),
                    })
                }
            };
            let Some(target_counts) = maximum else {
                // Distinguish "no repair at all" from "no maximum".
                let any = ctx
                    .rep(&child_counts, &repair_config)
                    .map(|r| !r.is_empty())
                    .unwrap_or(false);
                return Err(if any {
                    SolutionError::NoMaximumRepair { element: label }
                } else {
                    SolutionError::NoRepair { element: label }
                });
            };
            apply_change_reg(tree, node, &label, &child_counts, &target_counts, dtd)?;
            // Structure changed: re-snapshot the node list.
            continue 'outer;
        }
        if !changed {
            break;
        }
    }
    Ok(())
}

pub(crate) fn children_multiset(tree: &XmlTree, node: NodeId) -> BTreeMap<ElementType, u64> {
    let mut counts: BTreeMap<ElementType, u64> = BTreeMap::new();
    for &c in tree.children(node) {
        let label = tree.label(c);
        // Only clone the label when it is a new key (the common case is many
        // same-typed siblings).
        match counts.get_mut(label) {
            Some(n) => *n += 1,
            None => {
                counts.insert(label.clone(), 1);
            }
        }
    }
    counts
}

/// Apply one `ChangeReg` step at `node`: make its children multiset equal to
/// `target_counts` by adding fresh empty children and/or merging same-typed
/// children. Shared with the compiled path.
pub(crate) fn apply_change_reg(
    tree: &mut XmlTree,
    node: NodeId,
    label: &ElementType,
    current: &BTreeMap<ElementType, u64>,
    target_counts: &BTreeMap<ElementType, u64>,
    dtd: &xdx_xmltree::Dtd,
) -> Result<(), SolutionError> {
    let mut all_types: Vec<ElementType> = current.keys().cloned().collect();
    for t in target_counts.keys() {
        if !all_types.contains(t) {
            all_types.push(t.clone());
        }
    }
    for b in all_types {
        let p = current.get(&b).copied().unwrap_or(0);
        let q = target_counts.get(&b).copied().unwrap_or(0);
        if p < q {
            for _ in 0..(q - p) {
                tree.add_child(node, b.clone());
            }
        } else if p > q {
            // The chase only merges down to a single node (Claim 6.17
            // guarantees q = 1 for univocal content models).
            if q != 1 {
                return Err(SolutionError::NoMaximumRepair {
                    element: label.clone(),
                });
            }
            merge_children_of_type(tree, node, &b, dtd)?;
        }
    }
    Ok(())
}

/// Merge all children of `node` of type `b` into a single fresh node,
/// unioning attributes (constants win; clashing constants are an error) and
/// re-parenting grandchildren.
fn merge_children_of_type(
    tree: &mut XmlTree,
    node: NodeId,
    b: &ElementType,
    _dtd: &xdx_xmltree::Dtd,
) -> Result<(), SolutionError> {
    let victims: Vec<NodeId> = tree
        .children(node)
        .iter()
        .copied()
        .filter(|&c| tree.label(c) == b)
        .collect();
    debug_assert!(victims.len() > 1);
    // Collect the merged attribute map first (so a clash aborts before any
    // mutation).
    let mut merged_attrs: BTreeMap<AttrName, Value> = BTreeMap::new();
    for &v in &victims {
        for (attr, value) in tree.attrs(v) {
            match merged_attrs.get(attr) {
                None => {
                    merged_attrs.insert(attr.clone(), value.clone());
                }
                Some(existing) => match (existing.as_const(), value.as_const()) {
                    (Some(a), Some(bconst)) if a != bconst => {
                        return Err(SolutionError::AttributeClash {
                            element: b.clone(),
                            attr: attr.clone(),
                            values: (a.to_string(), bconst.to_string()),
                        });
                    }
                    // Prefer constants over nulls.
                    (None, Some(_)) => {
                        merged_attrs.insert(attr.clone(), value.clone());
                    }
                    _ => {}
                },
            }
        }
    }
    let merged = tree.new_detached(b.clone());
    for (attr, value) in merged_attrs {
        tree.set_attr(merged, attr, value);
    }
    for &v in &victims {
        tree.reparent_children(v, merged);
        tree.detach_child(node, v);
    }
    tree.attach_child(node, merged);
    Ok(())
}

/// Build the canonical solution for `source_tree`: the canonical pre-solution
/// followed by the chase. The result weakly conforms to the target DTD and
/// satisfies all STDs; for univocal target DTDs it is the canonical solution
/// of Section 6.1.
///
/// Runs on the compiled fast path (one [`crate::compiled::CompiledSetting`]
/// is built and shared by the pre-solution and the chase); the original
/// implementation is kept as [`canonical_solution_reference`].
pub fn canonical_solution(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
) -> Result<XmlTree, SolutionError> {
    crate::compiled::CompiledSetting::new(setting).canonical_solution(source_tree)
}

/// Reference implementation of [`canonical_solution`].
pub fn canonical_solution_reference(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
) -> Result<XmlTree, SolutionError> {
    let mut nulls = NullGen::new();
    let mut tree = canonical_presolution_reference(setting, source_tree, &mut nulls)?;
    chase_reference(&mut tree, setting, &mut nulls)?;
    Ok(tree)
}

/// Is `target_tree` a solution for `source_tree` (Definition 3.3)?
///
/// With `ordered = false` conformance is checked modulo sibling order
/// (the weak solutions of Section 5.2); with `ordered = true` the sibling
/// order must also match the content models.
///
/// Runs on the compiled fast path (the STD match relations over the target
/// tree are computed once per STD); the original implementation is kept as
/// [`is_solution_reference`].
pub fn is_solution(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    target_tree: &XmlTree,
    ordered: bool,
) -> bool {
    crate::compiled::CompiledSetting::new(setting).is_solution(source_tree, target_tree, ordered)
}

/// Reference implementation of [`is_solution`] (re-evaluates the target
/// pattern for every source-side match).
pub fn is_solution_reference(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    target_tree: &XmlTree,
    ordered: bool,
) -> bool {
    let conforms = if ordered {
        setting.target_dtd.conforms_reference(target_tree)
    } else {
        setting.target_dtd.conforms_unordered_reference(target_tree)
    };
    if !conforms {
        return false;
    }
    for std in &setting.stds {
        let shared = std.shared_vars();
        for assignment in all_matches_reference(source_tree, &std.source) {
            let restricted: Assignment = assignment
                .into_iter()
                .filter(|(v, _)| shared.contains(v))
                .collect();
            if !holds_reference(target_tree, &std.target, &restricted) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setting::{
        books_to_writers_setting, figure_1_source_tree, DataExchangeSetting, Std,
    };
    use xdx_patterns::parse_pattern;
    use xdx_patterns::query::ConjunctiveTreeQuery;
    use xdx_xmltree::Dtd;

    #[test]
    fn figure_2_canonical_solution() {
        // The canonical solution of the running example has the shape of
        // Figure 2(b): two writers, three works, null years.
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let solution = canonical_solution(&setting, &source).unwrap();
        assert!(setting.target_dtd.conforms_unordered(&solution));
        assert!(is_solution(&setting, &source, &solution, false));

        // One writer fragment per (title, name) match: the content model
        // writer* never forces a merge, so — unlike the hand-drawn Figure 2 —
        // the canonical solution keeps the two Papadimitriou fragments apart.
        // Both are solutions; they are homomorphically equivalent.
        let writers = solution.children(solution.root());
        assert_eq!(writers.len(), 3);
        // three works in total, all with null years and constant titles
        let works: Vec<_> = writers
            .iter()
            .flat_map(|&w| solution.children(w).to_vec())
            .collect();
        assert_eq!(works.len(), 3);
        for w in works {
            assert!(solution.attr(w, &"@year".into()).unwrap().is_null());
            assert!(solution.attr(w, &"@title".into()).unwrap().is_const());
        }

        // Query: who wrote "Computational Complexity"? (from the introduction)
        let q = ConjunctiveTreeQuery::new(
            ["w"],
            vec![
                parse_pattern("writer(@name=$w)[work(@title=\"Computational Complexity\")]")
                    .unwrap(),
            ],
        )
        .unwrap();
        let result = q.evaluate(&solution);
        assert_eq!(result.len(), 1);
        assert!(result.contains(&vec![Value::constant("Papadimitriou")]));
    }

    #[test]
    fn presolution_before_chase_may_not_conform() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let mut nulls = NullGen::new();
        let pre = canonical_presolution(&setting, &source, &mut nulls).unwrap();
        // Three (book, author) matches → three writer fragments; writers are
        // not yet merged and works lack @year? No: @year is a target variable
        // so it gets a null immediately; what the chase must do here is
        // nothing structural (writer* work* allows everything), so the
        // pre-solution already weakly conforms for this setting.
        assert_eq!(pre.children(pre.root()).len(), 3);
        assert!(setting.target_dtd.conforms_unordered(&pre));
    }

    #[test]
    fn example_6_4_and_6_13_chase() {
        // DS: r → A*, A has @a. DT: r2 → (B C)*, B has @m, C → D, D has @n.
        // STD: r2[B(@m=x)] :- r[A(@a=x)].
        // For a source with two A's the pre-solution has two B's; the chase
        // must add two C's (each with a D child carrying a fresh null @n).
        let source_dtd = Dtd::builder("r")
            .rule("r", "A*")
            .attributes("A", ["@a"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("r2")
            .rule("r2", "(B C)*")
            .rule("B", "eps")
            .rule("C", "D")
            .rule("D", "eps")
            .attributes("B", ["@m"])
            .attributes("D", ["@n"])
            .build()
            .unwrap();
        let std = Std::parse("r2[B(@m=$x)] :- r[A(@a=$x)]").unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);

        let mut source = XmlTree::new("r");
        for v in ["1", "2"] {
            let a = source.add_child(source.root(), "A");
            source.set_attr(a, "@a", v);
        }
        assert!(setting.source_dtd.conforms(&source));

        let solution = canonical_solution(&setting, &source).unwrap();
        assert!(setting.target_dtd.conforms_unordered(&solution));
        assert!(is_solution(&setting, &source, &solution, false));
        // 1 root + 2 B + 2 C + 2 D = 7 nodes
        assert_eq!(solution.size(), 7);
        let mut labels: Vec<String> = solution
            .children(solution.root())
            .iter()
            .map(|&c| solution.label(c).to_string())
            .collect();
        labels.sort();
        assert_eq!(labels, vec!["B", "B", "C", "C"]);
        // D nodes carry fresh nulls on @n
        for n in solution.nodes() {
            if solution.label(n).as_str() == "D" {
                assert!(solution.attr(n, &"@n".into()).unwrap().is_null());
            }
        }
    }

    #[test]
    fn merging_writers_shares_constant_attributes() {
        // A target DTD where the root allows only one writer forces the chase
        // to merge the three instantiated writers — which clashes, because
        // they have different names. With a source containing a single author
        // name, merging succeeds.
        let source_dtd = Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .attributes("book", ["@title"])
            .attributes("author", ["@name", "@aff"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("bib")
            .rule("bib", "writer")
            .rule("writer", "work*")
            .attributes("writer", ["@name"])
            .attributes("work", ["@title", "@year"])
            .build()
            .unwrap();
        let std = Std::parse(
            "bib[writer(@name=$y)[work(@title=$x, @year=$z)]] :- db[book(@title=$x)[author(@name=$y)]]",
        )
        .unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);

        // Source with two different authors: the forced merge clashes on @name.
        let source = figure_1_source_tree();
        let err = canonical_solution(&setting, &source).unwrap_err();
        assert!(matches!(err, SolutionError::AttributeClash { .. }));

        // Source where all books share one author: merge succeeds, the single
        // writer has two works.
        let mut single = XmlTree::new("db");
        for title in ["T1", "T2"] {
            let b = single.add_child(single.root(), "book");
            single.set_attr(b, "@title", title);
            let a = single.add_child(b, "author");
            single.set_attr(a, "@name", "Knuth");
            single.set_attr(a, "@aff", "Stanford");
        }
        let solution = canonical_solution(&setting, &single).unwrap();
        assert!(is_solution(&setting, &single, &solution, false));
        let writers = solution.children(solution.root());
        assert_eq!(writers.len(), 1);
        assert_eq!(solution.children(writers[0]).len(), 2);
        assert_eq!(
            solution.attr(writers[0], &"@name".into()).unwrap(),
            &Value::constant("Knuth")
        );
    }

    #[test]
    fn disallowed_attribute_fails_the_chase() {
        // The STD forces @isbn on work, which the target DTD does not allow.
        let setting = books_to_writers_setting();
        let mut bad = setting.clone();
        bad.stds = vec![Std::parse(
            "bib[writer(@name=$y)[work(@title=$x, @year=$z, @isbn=$w)]] :- db[book(@title=$x)[author(@name=$y)]]",
        )
        .unwrap()];
        let err = canonical_solution(&bad, &figure_1_source_tree()).unwrap_err();
        assert!(matches!(err, SolutionError::DisallowedAttribute { .. }));
    }

    #[test]
    fn no_repair_when_forced_child_is_impossible() {
        // Target DTD: bib → writer?, writer → ε. The STD forces a `work`
        // child under writer, but writer's content model is ε and `work` is
        // not even mentioned: rep(·) = ∅.
        let source_dtd = Dtd::builder("db")
            .rule("db", "book*")
            .attributes("book", ["@title"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("bib")
            .rule("bib", "writer?")
            .rule("writer", "eps")
            .build()
            .unwrap();
        let std = Std::parse("bib[writer[work]] :- db[book(@title=$x)]").unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);
        let mut source = XmlTree::new("db");
        let b = source.add_child(source.root(), "book");
        source.set_attr(b, "@title", "T");
        let err = canonical_solution(&setting, &source).unwrap_err();
        assert!(matches!(
            err,
            SolutionError::NoRepair { .. } | SolutionError::UnknownTargetElement { .. }
        ));
    }

    #[test]
    fn not_fully_specified_targets_are_rejected() {
        let setting = books_to_writers_setting();
        let mut bad = setting.clone();
        bad.stds = vec![Std::parse("//writer(@name=$y) :- db[book[author(@name=$y)]]").unwrap()];
        let err = canonical_solution(&bad, &figure_1_source_tree()).unwrap_err();
        assert!(matches!(
            err,
            SolutionError::NotFullySpecified { std_index: 0 }
        ));
    }

    #[test]
    fn empty_source_gives_minimal_solution() {
        let setting = books_to_writers_setting();
        let empty = XmlTree::new("db");
        let solution = canonical_solution(&setting, &empty).unwrap();
        assert_eq!(solution.size(), 1);
        assert!(is_solution(&setting, &empty, &solution, true));
    }

    #[test]
    fn is_solution_detects_missing_facts() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        // A target with only one writer does not satisfy the STD for the
        // Steiglitz match.
        let mut partial = XmlTree::new("bib");
        let w = partial.add_child(partial.root(), "writer");
        partial.set_attr(w, "@name", "Papadimitriou");
        let k = partial.add_child(w, "work");
        partial.set_attr(k, "@title", "Combinatorial Optimization");
        partial.set_attr(k, "@year", "1982");
        let k2 = partial.add_child(w, "work");
        partial.set_attr(k2, "@title", "Computational Complexity");
        partial.set_attr(k2, "@year", "1994");
        assert!(setting.target_dtd.conforms(&partial));
        assert!(!is_solution(&setting, &source, &partial, true));
    }

    #[test]
    fn canonical_solution_maps_into_every_solution() {
        // Lemma 6.15 on the running example: the canonical solution admits a
        // homomorphism into a handcrafted richer solution.
        use xdx_patterns::homomorphism::find_homomorphism;
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let canonical = canonical_solution(&setting, &source).unwrap();

        let mut rich = XmlTree::new("bib");
        for (name, works) in [
            (
                "Papadimitriou",
                vec![
                    ("Combinatorial Optimization", "1982"),
                    ("Computational Complexity", "1994"),
                    ("Elements of the Theory of Computation", "1981"),
                ],
            ),
            ("Steiglitz", vec![("Combinatorial Optimization", "1982")]),
            ("Knuth", vec![("TAOCP", "1968")]),
        ] {
            let w = rich.add_child(rich.root(), "writer");
            rich.set_attr(w, "@name", name);
            for (title, year) in works {
                let k = rich.add_child(w, "work");
                rich.set_attr(k, "@title", title);
                rich.set_attr(k, "@year", year);
            }
        }
        assert!(is_solution(&setting, &source, &rich, true));
        assert!(find_homomorphism(&canonical, &rich).is_some());
    }
}
