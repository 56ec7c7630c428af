//! Certain answers (Section 5.1 and Section 6).
//!
//! `certain(Q, T)` is the intersection of `Q(T')` over all solutions `T'` for
//! the source tree `T`. By Proposition 5.1 this is the same over ordered and
//! unordered solutions, and by Lemma 6.5, for fully-specified STDs and
//! univocal target DTDs, it can be computed by evaluating `Q` over the
//! canonical solution and keeping the tuples built from constants only.

use crate::compiled::CompiledSetting;
use crate::setting::DataExchangeSetting;
use crate::solution::SolutionError;
use std::collections::BTreeSet;
use xdx_patterns::plan::{QueryPlan, TreeIndex};
use xdx_patterns::query::UnionQuery;
use xdx_xmltree::{Value, XmlTree};

/// The result of a certain-answer computation.
#[derive(Debug, Clone)]
pub struct CertainAnswers {
    /// The certain tuples (constants only), in the order of the query head.
    pub tuples: BTreeSet<Vec<String>>,
    /// The canonical solution the answers were computed over; exposed so
    /// callers can materialise it (Proposition 5.2) or inspect it.
    pub solution: XmlTree,
}

impl CertainAnswers {
    /// For Boolean queries: is the certain answer `true`?
    pub fn as_boolean(&self) -> bool {
        // A Boolean query returns the empty tuple when it holds.
        !self.tuples.is_empty()
    }
}

/// Compute `certain(Q, T)` by building the canonical solution and evaluating
/// the query over it (Lemma 6.5 / Theorem 6.2, tractable side).
///
/// This is exact whenever the STDs are fully specified and the target DTD is
/// univocal (use [`crate::classify::classify_setting`] to check); the chase
/// reports an error otherwise. When the chase fails because the source tree
/// admits no solution at all, the corresponding [`SolutionError`] is
/// returned — in that degenerate case the paper's semantics would make every
/// tuple certain.
pub fn certain_answers(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    query: &UnionQuery,
) -> Result<CertainAnswers, SolutionError> {
    // One compiled setting serves both the canonical solution (worklist
    // chase, template stamping) and the query planning below.
    let compiled = CompiledSetting::new(setting);
    let solution = compiled.canonical_solution(source_tree)?;
    // The solution conforms (unordered) to the target DTD, so the query is
    // planned against the target DTD's symbol table.
    let plan = QueryPlan::new(query, compiled.target_dtd());
    let index = TreeIndex::new(&solution, compiled.target_dtd());
    let tuples = certain_tuples_planned(&solution, &plan, &index);
    Ok(CertainAnswers { tuples, solution })
}

/// The certain tuples of `query` over a canonical solution: evaluate and
/// keep only rows built entirely from constants (Lemma 6.5's filter).
///
/// Plans the query per call (DTD-less); repeated evaluations of one query
/// should hold a [`QueryPlan`] and go through [`certain_tuples_planned`], as
/// the batch engine ([`crate::engine::BatchEngine::certain_answers_batch`])
/// does — one plan per query, one [`TreeIndex`] per solution.
pub fn certain_tuples(solution: &XmlTree, query: &UnionQuery) -> BTreeSet<Vec<String>> {
    let plan = QueryPlan::without_dtd(query);
    let index = TreeIndex::without_dtd(solution);
    certain_tuples_planned(solution, &plan, &index)
}

/// As [`certain_tuples`], on a pre-planned query and a pre-built index (the
/// plan and index must target the same DTD — or both be DTD-less).
pub fn certain_tuples_planned(
    solution: &XmlTree,
    plan: &QueryPlan,
    index: &TreeIndex,
) -> BTreeSet<Vec<String>> {
    certain_tuples_planned_with(
        solution,
        plan,
        index,
        &mut xdx_patterns::plan::EvalScratch::new(),
    )
}

/// As [`certain_tuples_planned`], reusing a caller-held evaluation scratch
/// (the per-worker amortisation hook of the batch engine and the serving
/// dispatcher).
pub fn certain_tuples_planned_with(
    solution: &XmlTree,
    plan: &QueryPlan,
    index: &TreeIndex,
    eval: &mut xdx_patterns::plan::EvalScratch,
) -> BTreeSet<Vec<String>> {
    plan.evaluate_with(solution, index, eval)
        .into_iter()
        .filter_map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Const(s) => Some(s.to_string()),
                    Value::Null(_) => None,
                })
                .collect::<Option<Vec<String>>>()
        })
        .collect()
}

/// Compute the certain answer of a Boolean query.
pub fn certain_answers_boolean(
    setting: &DataExchangeSetting,
    source_tree: &XmlTree,
    query: &UnionQuery,
) -> Result<bool, SolutionError> {
    let compiled = CompiledSetting::new(setting);
    let solution = compiled.canonical_solution(source_tree)?;
    let plan = QueryPlan::new(query, compiled.target_dtd());
    let index = TreeIndex::new(&solution, compiled.target_dtd());
    Ok(plan.evaluate_boolean(&solution, &index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setting::{books_to_writers_setting, figure_1_source_tree};
    use xdx_patterns::parse_pattern;
    use xdx_patterns::query::ConjunctiveTreeQuery;

    fn query(head: &[&str], patterns: &[&str]) -> UnionQuery {
        UnionQuery::single(
            ConjunctiveTreeQuery::new(
                head.iter().copied(),
                patterns.iter().map(|p| parse_pattern(p).unwrap()).collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn introduction_query_who_wrote_computational_complexity() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let q = query(
            &["w"],
            &["writer(@name=$w)[work(@title=\"Computational Complexity\")]"],
        );
        let answers = certain_answers(&setting, &source, &q).unwrap();
        assert_eq!(answers.tuples.len(), 1);
        assert!(answers.tuples.contains(&vec!["Papadimitriou".to_string()]));
    }

    #[test]
    fn introduction_query_works_written_in_1994_is_uncertain() {
        // "What are the works written in 1994?" cannot be answered with
        // certainty: the years are nulls in every canonical solution.
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let q = query(&["t"], &["work(@title=$t, @year=\"1994\")"]);
        let answers = certain_answers(&setting, &source, &q).unwrap();
        assert!(answers.tuples.is_empty());
    }

    #[test]
    fn null_valued_projections_are_filtered_out() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        // Projecting the year yields nulls only, hence no certain tuples.
        let q = query(&["y"], &["work(@year=$y)"]);
        let answers = certain_answers(&setting, &source, &q).unwrap();
        assert!(answers.tuples.is_empty());
        // Projecting titles yields constants.
        let q2 = query(&["t"], &["work(@title=$t)"]);
        let answers2 = certain_answers(&setting, &source, &q2).unwrap();
        assert_eq!(answers2.tuples.len(), 2);
    }

    #[test]
    fn boolean_certain_answers() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let yes = query(&[], &["bib[writer(@name=\"Steiglitz\")]"]);
        assert!(certain_answers_boolean(&setting, &source, &yes).unwrap());
        let no = query(&[], &["bib[writer(@name=\"Knuth\")]"]);
        assert!(!certain_answers_boolean(&setting, &source, &no).unwrap());
    }

    #[test]
    fn union_queries_combine_branches() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let q = UnionQuery::new(vec![
            ConjunctiveTreeQuery::new(
                ["n"],
                vec![
                    parse_pattern("writer(@name=$n)[work(@title=\"Computational Complexity\")]")
                        .unwrap(),
                ],
            )
            .unwrap(),
            ConjunctiveTreeQuery::new(
                ["n"],
                vec![parse_pattern(
                    "writer(@name=$n)[work(@title=\"Combinatorial Optimization\")]",
                )
                .unwrap()],
            )
            .unwrap(),
        ])
        .unwrap();
        let answers = certain_answers(&setting, &source, &q).unwrap();
        assert_eq!(answers.tuples.len(), 2);
        assert!(answers.tuples.contains(&vec!["Steiglitz".to_string()]));
    }

    #[test]
    fn certain_answers_are_contained_in_answers_over_any_solution() {
        // Soundness sanity check against a handcrafted alternative solution.
        use crate::solution::is_solution;
        use xdx_xmltree::XmlTree;
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let q = query(&["w", "t"], &["writer(@name=$w)[work(@title=$t)]"]);
        let answers = certain_answers(&setting, &source, &q).unwrap();
        assert_eq!(answers.tuples.len(), 3);

        let mut other = XmlTree::new("bib");
        for (name, works) in [
            (
                "Papadimitriou",
                vec![
                    ("Combinatorial Optimization", "1982"),
                    ("Computational Complexity", "1994"),
                ],
            ),
            ("Steiglitz", vec![("Combinatorial Optimization", "1982")]),
            ("Knuth", vec![("TAOCP", "1968")]),
        ] {
            let w = other.add_child(other.root(), "writer");
            other.set_attr(w, "@name", name);
            for (title, year) in works {
                let k = other.add_child(w, "work");
                other.set_attr(k, "@title", title);
                other.set_attr(k, "@year", year);
            }
        }
        assert!(is_solution(&setting, &source, &other, true));
        let over_other: BTreeSet<Vec<String>> = UnionQuery::single(
            ConjunctiveTreeQuery::new(
                ["w", "t"],
                vec![parse_pattern("writer(@name=$w)[work(@title=$t)]").unwrap()],
            )
            .unwrap(),
        )
        .evaluate(&other)
        .into_iter()
        .map(|row| {
            row.iter()
                .map(|v| v.as_const().unwrap().to_string())
                .collect()
        })
        .collect();
        assert!(answers.tuples.is_subset(&over_other));
        // ...and strictly contained: the other solution invents a Knuth fact
        // that is not certain.
        assert!(over_other.len() > answers.tuples.len());
    }
}
