//! Join-order enumeration.
//!
//! Two strategies are provided, mirroring PostgreSQL's split between exhaustive dynamic
//! programming and a heuristic fallback for very large join graphs:
//!
//! * [`EnumerationAlgorithm::DpCcp`] — the connected-subgraph / complement-pair
//!   enumeration of Moerkotte & Neumann ("Analysis of Two Existing and One New Dynamic
//!   Programming Algorithm", VLDB 2006). It enumerates every bushy join order without
//!   Cartesian products and is efficient on the sparse (mostly snowflake-shaped) join
//!   graphs of the Join Order Benchmark.
//! * [`EnumerationAlgorithm::Greedy`] — greedy operator ordering (GOO): repeatedly join
//!   the pair of sub-plans with the smallest estimated output. Used beyond the
//!   `greedy_threshold` (PostgreSQL switches to GEQO at `geqo_threshold`), and as a
//!   baseline for the ablation benchmarks.
//!
//! For every candidate join the enumerator prices a hash join (both build directions),
//! an index nested-loop join (when the inner side is a single base relation with an
//! index on the join key) and a sort-merge join, keeping the cheapest — so a large
//! cardinality underestimate can flip the choice to a nested-loop strategy, which is
//! exactly the failure mode the paper's query 18a walk-through describes.

use crate::cardinality::CardinalityEstimator;
use crate::cost::{Cost, CostModel};
use crate::error::PlanError;
use crate::graph::JoinGraph;
use crate::optimizer::OptimizerConfig;
use crate::plan::{PhysicalPlan, PlanKind};
use crate::relset::RelSet;
use crate::spec::{JoinEdge, QuerySpec};
use reopt_expr::{conjoin, ColumnRef, Expr};
use std::collections::HashMap;

/// Which enumeration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationAlgorithm {
    /// Exhaustive DP over connected subgraph / complement pairs (bushy, no cross joins).
    DpCcp,
    /// Greedy operator ordering.
    Greedy,
}

/// Callback answering "does relation `rel` have an index on `column`?" and
/// "how many rows does the underlying table have?".
pub trait IndexInfo {
    /// Whether an index exists on the (unqualified) column of the relation's table.
    fn has_index(&self, rel: usize, column: &str) -> bool;
    /// The unfiltered row count of the relation's table.
    fn table_rows(&self, rel: usize) -> f64;
}

/// Which join algorithm (and orientation) won the pricing race for one sub-plan pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinChoiceKind {
    /// Hash join; `swapped` means the right input is the probe side.
    Hash { swapped: bool },
    /// Sort-merge join.
    Merge,
    /// Index nested-loop join; `swapped` means the left input is the indexed inner.
    IndexNl { swapped: bool },
    /// Plain nested loop (only priced when nothing else is available).
    NestedLoop,
}

/// One input of a candidate join as pricing sees it: the relations it covers and the
/// cost and output estimate of its best plan. Pricing never touches a plan tree.
#[derive(Debug, Clone, Copy)]
struct JoinSide {
    rel_set: RelSet,
    cost: Cost,
    estimated_rows: f64,
}

impl JoinSide {
    fn of(plan: &PhysicalPlan) -> Self {
        Self {
            rel_set: plan.rel_set,
            cost: plan.cost,
            estimated_rows: plan.estimated_rows,
        }
    }
}

/// A priced join decision: the winning algorithm and the join's output estimate. The
/// join keys and residual predicates are re-derived from the two inputs' relation sets
/// when the node is built ([`JoinEnumerator::join_node`]), once per join of the final
/// tree rather than once per priced pair.
#[derive(Debug, Clone, Copy)]
struct JoinChoice {
    algorithm: JoinChoiceKind,
    output_rows: f64,
}

/// The best plan found so far for one connected relation set, kept as its cost, its
/// output estimate and — for a join — the two halves and algorithm it joins. Both
/// enumerators fill a table of these; the plan tree is built once, from the winning
/// splits, after the search ([`JoinEnumerator::build`]).
#[derive(Debug, Clone, Copy)]
struct TableEntry {
    cost: Cost,
    estimated_rows: f64,
    /// `None` for a base relation, whose plan is the access path passed in.
    split: Option<(RelSet, RelSet, JoinChoiceKind)>,
}

impl TableEntry {
    fn side(&self, rel_set: RelSet) -> JoinSide {
        JoinSide {
            rel_set,
            cost: self.cost,
            estimated_rows: self.estimated_rows,
        }
    }
}

/// Best entry per connected relation set.
type JoinTable = HashMap<RelSet, TableEntry>;

/// Keep `(cost, algorithm)` if it is strictly cheaper (by total) than the current
/// best, so the first of equal minima wins, as with `Iterator::min_by`.
fn keep_cheaper(best: &mut Option<(Cost, JoinChoiceKind)>, cost: Cost, algorithm: JoinChoiceKind) {
    if best.map_or(true, |(current, _)| cost.total < current.total) {
        *best = Some((cost, algorithm));
    }
}

/// The join enumerator.
pub struct JoinEnumerator<'a> {
    spec: &'a QuerySpec,
    graph: &'a JoinGraph,
    estimator: &'a CardinalityEstimator<'a>,
    cost_model: &'a CostModel,
    config: &'a OptimizerConfig,
    index_info: &'a dyn IndexInfo,
}

impl<'a> JoinEnumerator<'a> {
    /// Create an enumerator for one query.
    pub fn new(
        spec: &'a QuerySpec,
        graph: &'a JoinGraph,
        estimator: &'a CardinalityEstimator<'a>,
        cost_model: &'a CostModel,
        config: &'a OptimizerConfig,
        index_info: &'a dyn IndexInfo,
    ) -> Self {
        Self {
            spec,
            graph,
            estimator,
            cost_model,
            config,
            index_info,
        }
    }

    /// Find the cheapest join order for the given per-relation access paths.
    ///
    /// `base_plans[i]` must be the chosen access path for relation `i`.
    pub fn enumerate(
        &self,
        base_plans: Vec<PhysicalPlan>,
        algorithm: EnumerationAlgorithm,
    ) -> Result<PhysicalPlan, PlanError> {
        let n = base_plans.len();
        assert_eq!(n, self.spec.relation_count());
        if n == 1 {
            return Ok(base_plans.into_iter().next().expect("one plan"));
        }
        if !self.graph.is_fully_connected() {
            return Err(PlanError::DisconnectedJoinGraph);
        }
        let bases: Vec<JoinSide> = base_plans.iter().map(JoinSide::of).collect();
        let mut table: JoinTable = bases
            .iter()
            .map(|side| {
                let entry = TableEntry {
                    cost: side.cost,
                    estimated_rows: side.estimated_rows,
                    split: None,
                };
                (side.rel_set, entry)
            })
            .collect();
        match algorithm {
            EnumerationAlgorithm::DpCcp => self.dpccp(&mut table, n),
            EnumerationAlgorithm::Greedy => self.greedy(&mut table, bases)?,
        }
        let root = RelSet::all(n);
        if !table.contains_key(&root) {
            return Err(PlanError::DisconnectedJoinGraph);
        }
        let mut leaves: HashMap<RelSet, PhysicalPlan> = base_plans
            .into_iter()
            .map(|plan| (plan.rel_set, plan))
            .collect();
        Ok(self.build(&table, &mut leaves, root))
    }

    /// Exhaustive DP over csg-cmp pairs: fill `table` with the cheapest split of every
    /// connected relation set.
    fn dpccp(&self, table: &mut JoinTable, n: usize) {
        // Process pairs in increasing size of the joined set so sub-plans exist:
        // bucket by size (O(pairs)) instead of sorting the whole pair list.
        let pairs = enumerate_csg_cmp_pairs(self.graph, n);
        let mut buckets: Vec<Vec<(RelSet, RelSet)>> = vec![Vec::new(); n + 1];
        for (s1, s2) in pairs {
            buckets[s1.union(s2).len()].push((s1, s2));
        }

        for (s1, s2) in buckets.into_iter().flatten() {
            let (Some(left), Some(right)) = (table.get(&s1), table.get(&s2)) else {
                continue;
            };
            let Some((cost, choice)) = self.cheapest_join(left.side(s1), right.side(s2)) else {
                continue;
            };
            let combined = s1.union(s2);
            if table
                .get(&combined)
                .is_some_and(|existing| !cost.is_cheaper_than(existing.cost))
            {
                continue;
            }
            let entry = TableEntry {
                cost,
                estimated_rows: choice.output_rows,
                split: Some((s1, s2, choice.algorithm)),
            };
            table.insert(combined, entry);
        }
    }

    /// Greedy operator ordering: repeatedly join the connected pair of components with
    /// the smallest estimated result, recording each join in `table`.
    fn greedy(&self, table: &mut JoinTable, bases: Vec<JoinSide>) -> Result<(), PlanError> {
        let mut components = bases;
        while components.len() > 1 {
            let mut best_pair: Option<(usize, usize, Cost, JoinChoice)> = None;
            for i in 0..components.len() {
                for j in (i + 1)..components.len() {
                    let Some((cost, choice)) = self.cheapest_join(components[i], components[j])
                    else {
                        continue;
                    };
                    let better = match &best_pair {
                        None => true,
                        Some((_, _, best_cost, best_choice)) => {
                            choice.output_rows < best_choice.output_rows
                                || (choice.output_rows == best_choice.output_rows
                                    && cost.is_cheaper_than(*best_cost))
                        }
                    };
                    if better {
                        best_pair = Some((i, j, cost, choice));
                    }
                }
            }
            let Some((i, j, cost, choice)) = best_pair else {
                return Err(PlanError::DisconnectedJoinGraph);
            };
            let (left, right) = (components[i].rel_set, components[j].rel_set);
            let joined = JoinSide {
                rel_set: left.union(right),
                cost,
                estimated_rows: choice.output_rows,
            };
            table.insert(
                joined.rel_set,
                TableEntry {
                    cost,
                    estimated_rows: choice.output_rows,
                    split: Some((left, right, choice.algorithm)),
                },
            );
            // Remove j first (it is the larger index).
            components.remove(j);
            components.remove(i);
            components.push(joined);
        }
        Ok(())
    }

    /// Price every enabled join strategy for two disjoint inputs and return the
    /// winner's cost and choice, or `None` if no join edge connects them (Cartesian
    /// products are not considered). Allocation-free: it counts the connecting edges
    /// and complex predicates rather than collecting them.
    fn cheapest_join(&self, left: JoinSide, right: JoinSide) -> Option<(Cost, JoinChoice)> {
        // Every edge between the two disjoint sets orients and contributes a join key.
        let key_count = self.spec.edges_between(left.rel_set, right.rel_set).count();
        if key_count == 0 {
            return None;
        }
        let combined = left.rel_set.union(right.rel_set);
        let output_rows = self.estimator.estimate(combined).max(1.0);
        let complex_count = self
            .spec
            .complex_predicates_for_join(left.rel_set, right.rel_set)
            .count();

        let mut best: Option<(Cost, JoinChoiceKind)> = None;

        // Hash joins, both build directions.
        if self.config.enable_hash_joins {
            keep_cheaper(
                &mut best,
                self.cost_model.hash_join(
                    left.cost,
                    right.cost,
                    left.estimated_rows,
                    right.estimated_rows,
                    output_rows,
                    key_count,
                ),
                JoinChoiceKind::Hash { swapped: false },
            );
            keep_cheaper(
                &mut best,
                self.cost_model.hash_join(
                    right.cost,
                    left.cost,
                    right.estimated_rows,
                    left.estimated_rows,
                    output_rows,
                    key_count,
                ),
                JoinChoiceKind::Hash { swapped: true },
            );
        }

        // Merge join (one orientation; cost is symmetric in our model).
        if self.config.enable_merge_joins {
            keep_cheaper(
                &mut best,
                self.cost_model.merge_join(
                    left.cost,
                    right.cost,
                    left.estimated_rows,
                    right.estimated_rows,
                    output_rows,
                    key_count,
                ),
                JoinChoiceKind::Merge,
            );
        }

        // Index nested-loop joins when one side is a single base relation with an index
        // on a join-key column.
        if self.config.enable_index_nl_joins {
            for (outer, inner, swapped) in [(left, right, false), (right, left, true)] {
                if self.index_nl_key(outer.rel_set, inner.rel_set).is_some() {
                    let cost = self.index_nl_cost(
                        outer,
                        inner.rel_set,
                        key_count,
                        complex_count,
                        output_rows,
                    );
                    keep_cheaper(&mut best, cost, JoinChoiceKind::IndexNl { swapped });
                }
            }
        }

        // Plain nested loop as a last resort (always available once there is an edge).
        let (cost, algorithm) = best.unwrap_or_else(|| {
            let cost = self.cost_model.nested_loop_join(
                left.cost,
                right.cost,
                left.estimated_rows,
                right.estimated_rows,
                output_rows,
            );
            (cost, JoinChoiceKind::NestedLoop)
        });
        Some((
            cost,
            JoinChoice {
                algorithm,
                output_rows,
            },
        ))
    }

    /// Build the plan tree for `set` from the winning splits in `table`, moving each
    /// base relation's access path out of `leaves`. Nothing is cloned: every join node
    /// takes ownership of its freshly built children.
    fn build(
        &self,
        table: &JoinTable,
        leaves: &mut HashMap<RelSet, PhysicalPlan>,
        set: RelSet,
    ) -> PhysicalPlan {
        let entry = table[&set];
        let Some((left, right, algorithm)) = entry.split else {
            return leaves
                .remove(&set)
                .expect("every base relation is built exactly once");
        };
        let left = self.build(table, leaves, left);
        let right = self.build(table, leaves, right);
        self.join_node(left, right, algorithm, entry.cost, entry.estimated_rows)
    }

    /// The index-lookup key for an index nested-loop join with `inner` as the single
    /// indexed base relation: the position (among the edges between `outer` and
    /// `inner`) of the first edge whose inner-side column has an index. Shared by
    /// pricing and building so their eligibility cannot drift.
    fn index_nl_key(&self, outer: RelSet, inner: RelSet) -> Option<usize> {
        if inner.len() != 1 {
            return None;
        }
        let inner_rel = inner.min_index().expect("single relation");
        for (edge_idx, edge) in self.spec.edges_between(outer, inner).enumerate() {
            let (inner_col, _) = edge.oriented_ref(inner)?;
            if self.index_info.has_index(inner_rel, &inner_col.name) {
                return Some(edge_idx);
            }
        }
        None
    }

    /// The cost of an index nested-loop join of `outer` with the indexed base relation
    /// `inner`.
    fn index_nl_cost(
        &self,
        outer: JoinSide,
        inner: RelSet,
        edge_count: usize,
        complex_count: usize,
        output_rows: f64,
    ) -> Cost {
        let inner_rel = inner.min_index().expect("single relation");
        let inner_table_rows = self.index_info.table_rows(inner_rel);
        let matches_per_lookup =
            (output_rows / outer.estimated_rows.max(1.0)).clamp(0.1, inner_table_rows);
        let has_inner_predicate = !self.spec.local_predicates[inner_rel].is_empty();
        let residual_count = (edge_count - 1) + complex_count + (has_inner_predicate as usize);
        self.cost_model.index_nested_loop_join(
            outer.cost,
            outer.estimated_rows,
            inner_table_rows,
            matches_per_lookup,
            output_rows,
            residual_count,
        )
    }

    /// The join node for a priced split: derives the keys and residual predicates from
    /// the two inputs' relation sets and takes ownership of the inputs. `cost` and
    /// `output_rows` are what [`Self::cheapest_join`] priced for this split.
    fn join_node(
        &self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        algorithm: JoinChoiceKind,
        cost: Cost,
        output_rows: f64,
    ) -> PhysicalPlan {
        let edges: Vec<&JoinEdge> = self
            .spec
            .edges_between(left.rel_set, right.rel_set)
            .collect();
        let complex: Vec<Expr> = self
            .spec
            .complex_predicates_for_join(left.rel_set, right.rel_set)
            .cloned()
            .collect();
        let rel_set = left.rel_set.union(right.rel_set);
        let join_keys = |outer: RelSet| -> Vec<(ColumnRef, ColumnRef)> {
            edges
                .iter()
                .filter_map(|edge| edge.oriented(outer))
                .collect()
        };
        let (kind, schema, children) = match algorithm {
            JoinChoiceKind::Hash { swapped } => {
                let (outer, build) = if swapped {
                    (right, left)
                } else {
                    (left, right)
                };
                let kind = PlanKind::HashJoin {
                    keys: join_keys(outer.rel_set),
                    residual: conjoin(&complex),
                };
                (kind, outer.schema.join(&build.schema), vec![outer, build])
            }
            JoinChoiceKind::Merge => {
                let kind = PlanKind::MergeJoin {
                    keys: join_keys(left.rel_set),
                    residual: conjoin(&complex),
                };
                (kind, left.schema.join(&right.schema), vec![left, right])
            }
            JoinChoiceKind::NestedLoop => {
                let mut predicates: Vec<Expr> = edges.iter().map(|e| e.to_expr()).collect();
                predicates.extend(complex);
                let kind = PlanKind::NestedLoopJoin {
                    predicate: conjoin(&predicates),
                };
                (kind, left.schema.join(&right.schema), vec![left, right])
            }
            JoinChoiceKind::IndexNl { swapped } => {
                // The inner base relation is read through its index, so its access
                // path is dropped; only the outer input stays a child.
                let (outer, inner) = if swapped {
                    (right, left)
                } else {
                    (left, right)
                };
                let chosen_idx = self
                    .index_nl_key(outer.rel_set, inner.rel_set)
                    .expect("priced index nested-loop candidate has an index key");
                let (inner_col, outer_col) = edges[chosen_idx]
                    .oriented(inner.rel_set)
                    .expect("index key edge spans the join");
                let inner_rel = inner.rel_set.min_index().expect("single relation");
                let relation = &self.spec.relations[inner_rel];
                // Remaining join edges (beyond the index key) plus complex predicates
                // are residual filters on the joined row.
                let mut residual: Vec<Expr> = edges
                    .iter()
                    .enumerate()
                    .filter(|(edge_idx, _)| *edge_idx != chosen_idx)
                    .map(|(_, e)| e.to_expr())
                    .collect();
                residual.extend(complex);
                let kind = PlanKind::IndexNestedLoopJoin {
                    inner_rel,
                    inner_alias: relation.alias.clone(),
                    inner_table: relation.table.clone(),
                    outer_key: outer_col,
                    inner_key: inner_col.name,
                    inner_predicate: conjoin(&self.spec.local_predicates[inner_rel]),
                    residual: conjoin(&residual),
                };
                (kind, outer.schema.join(&relation.schema), vec![outer])
            }
        };
        PhysicalPlan {
            kind,
            schema,
            estimated_rows: output_rows,
            cost,
            rel_set,
            children,
        }
    }
}

/// Enumerate every connected-subgraph / connected-complement pair of the join graph
/// (each unordered pair is emitted once).
pub fn enumerate_csg_cmp_pairs(graph: &JoinGraph, n: usize) -> Vec<(RelSet, RelSet)> {
    let mut pairs = Vec::new();
    for i in (0..n).rev() {
        let start = RelSet::single(i);
        emit_csg(graph, start, &mut pairs);
        enumerate_csg_rec(graph, start, b_set(i), &mut pairs);
    }
    pairs
}

/// The "prohibited" set {0, ..., i}: nodes that earlier iterations are responsible for.
fn b_set(i: usize) -> RelSet {
    RelSet::all(i + 1)
}

fn enumerate_csg_rec(
    graph: &JoinGraph,
    set: RelSet,
    prohibited: RelSet,
    pairs: &mut Vec<(RelSet, RelSet)>,
) {
    let neighbors = graph.neighbors(set).difference(prohibited);
    if neighbors.is_empty() {
        return;
    }
    for subset in neighbors.nonempty_subsets() {
        emit_csg(graph, set.union(subset), pairs);
    }
    for subset in neighbors.nonempty_subsets() {
        enumerate_csg_rec(graph, set.union(subset), prohibited.union(neighbors), pairs);
    }
}

fn emit_csg(graph: &JoinGraph, s1: RelSet, pairs: &mut Vec<(RelSet, RelSet)>) {
    let min = s1.min_index().expect("csg is non-empty");
    let prohibited = s1.union(b_set(min));
    let neighbors = graph.neighbors(s1).difference(prohibited);
    // Iterate neighbors in descending order, as in the original algorithm
    // (allocation-free bitset walk from the highest set bit down).
    for i in neighbors.iter_descending() {
        let s2 = RelSet::single(i);
        pairs.push((s1, s2));
        enumerate_cmp_rec(
            graph,
            s1,
            s2,
            prohibited.union(b_set(i).intersect(neighbors)),
            pairs,
        );
    }
}

fn enumerate_cmp_rec(
    graph: &JoinGraph,
    s1: RelSet,
    s2: RelSet,
    prohibited: RelSet,
    pairs: &mut Vec<(RelSet, RelSet)>,
) {
    let neighbors = graph.neighbors(s2).difference(prohibited);
    if neighbors.is_empty() {
        return;
    }
    for subset in neighbors.nonempty_subsets() {
        pairs.push((s1, s2.union(subset)));
    }
    for subset in neighbors.nonempty_subsets() {
        enumerate_cmp_rec(graph, s1, s2.union(subset), prohibited.union(neighbors), pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::CardinalityOverrides;
    use crate::plan::JoinAlgorithm;
    use crate::spec::RelationSpec;
    use reopt_catalog::Catalog;
    use reopt_sql::{SelectExpr, SelectItem};
    use reopt_storage::{Column, DataType, Schema};
    use std::collections::HashSet;

    /// Build a QuerySpec with the given undirected edges over `n` relations.
    fn spec_with_edges(n: usize, edges: &[(usize, usize)]) -> QuerySpec {
        let relations: Vec<RelationSpec> = (0..n)
            .map(|i| RelationSpec {
                index: i,
                alias: format!("r{i}"),
                table: format!("table{i}"),
                schema: Schema::new(vec![Column::new("id", DataType::Int)])
                    .qualified(&format!("r{i}")),
            })
            .collect();
        let join_edges = edges
            .iter()
            .map(|&(a, b)| JoinEdge {
                left_rel: a,
                left_column: ColumnRef::qualified(format!("r{a}"), "id"),
                right_rel: b,
                right_column: ColumnRef::qualified(format!("r{b}"), "id"),
            })
            .collect();
        QuerySpec {
            local_predicates: vec![Vec::new(); n],
            relations,
            join_edges,
            complex_predicates: vec![],
            output: vec![SelectItem {
                expr: SelectExpr::Wildcard,
                alias: None,
            }],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    /// Brute-force enumeration of csg-cmp pairs for validation: every connected set S1,
    /// every connected S2 disjoint from S1 with an edge between, counted once per
    /// unordered pair.
    fn brute_force_pairs(graph: &JoinGraph, spec: &QuerySpec, n: usize) -> usize {
        let mut count = 0;
        let all = 1u64 << n;
        for m1 in 1..all {
            let s1 = RelSet::from_mask(m1);
            if !graph.is_connected(s1) {
                continue;
            }
            for m2 in (m1 + 1)..all {
                let s2 = RelSet::from_mask(m2);
                if !s1.is_disjoint(s2) || !graph.is_connected(s2) {
                    continue;
                }
                if spec.edges_between(s1, s2).next().is_some() {
                    count += 1;
                }
            }
        }
        count
    }

    fn assert_pair_set_valid(n: usize, edges: &[(usize, usize)]) {
        let spec = spec_with_edges(n, edges);
        let graph = JoinGraph::new(&spec);
        let pairs = enumerate_csg_cmp_pairs(&graph, n);
        // No duplicates (as unordered pairs) and every pair valid.
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        for (s1, s2) in &pairs {
            assert!(graph.is_connected(*s1), "{s1} not connected");
            assert!(graph.is_connected(*s2), "{s2} not connected");
            assert!(s1.is_disjoint(*s2));
            assert!(spec.edges_between(*s1, *s2).next().is_some());
            let key = if s1.mask() < s2.mask() {
                (s1.mask(), s2.mask())
            } else {
                (s2.mask(), s1.mask())
            };
            assert!(seen.insert(key), "duplicate pair {s1} / {s2}");
        }
        assert_eq!(
            pairs.len(),
            brute_force_pairs(&graph, &spec, n),
            "pair count mismatch for n={n}, edges={edges:?}"
        );
    }

    #[test]
    fn dpccp_pairs_chain() {
        assert_pair_set_valid(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_pair_set_valid(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn dpccp_pairs_star() {
        assert_pair_set_valid(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn dpccp_pairs_cycle_and_clique() {
        assert_pair_set_valid(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_pair_set_valid(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn dpccp_pairs_snowflake() {
        // A small snowflake: hub 0, spokes 1-3, and leaves hanging off the spokes.
        assert_pair_set_valid(7, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]);
    }

    #[test]
    fn dpccp_handles_two_relations() {
        assert_pair_set_valid(2, &[(0, 1)]);
        let spec = spec_with_edges(2, &[(0, 1)]);
        let graph = JoinGraph::new(&spec);
        let pairs = enumerate_csg_cmp_pairs(&graph, 2);
        assert_eq!(pairs.len(), 1);
    }

    /// Stub [`IndexInfo`]: relation `rel` has an index on every column iff
    /// `indexed[rel]`, over a table of `rows[rel]` rows.
    struct StubIndexes {
        indexed: Vec<bool>,
        rows: Vec<f64>,
    }

    impl IndexInfo for StubIndexes {
        fn has_index(&self, rel: usize, _column: &str) -> bool {
            self.indexed[rel]
        }

        fn table_rows(&self, rel: usize) -> f64 {
            self.rows[rel]
        }
    }

    /// SplitMix64, for seeded oracle cases.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() % items.len() as u64) as usize]
        }
    }

    type Edges = &'static [(usize, usize)];

    /// The join graphs of the oracle checks (n <= 6): name, relations, edges.
    const ORACLE_SHAPES: [(&str, usize, Edges); 5] = [
        ("chain", 5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        ("star", 5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
        ("cycle", 5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        (
            "clique",
            4,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        ),
        ("snowflake", 6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]),
    ];

    /// Seeded base-table sizes, indexes and injected cardinalities (of base relations
    /// and of a few joined pairs), so that different shapes and algorithms win.
    fn oracle_inputs(
        seed: u64,
        n: usize,
        edges: &[(usize, usize)],
    ) -> (StubIndexes, CardinalityOverrides) {
        let mut mix = Mix(seed);
        let rows: Vec<f64> = (0..n)
            .map(|_| mix.pick(&[50.0, 2_000.0, 40_000.0, 900_000.0]))
            .collect();
        let indexed: Vec<bool> = (0..n).map(|_| mix.next() % 3 != 0).collect();
        let mut overrides = CardinalityOverrides::new();
        for (rel, &table_rows) in rows.iter().enumerate() {
            let kept = mix.pick(&[1.0, 0.3, 0.01, 0.0005]);
            overrides.set(RelSet::single(rel), (table_rows * kept).max(1.0));
        }
        for &(a, b) in edges {
            if mix.next() % 3 == 0 {
                let rows = mix.pick(&[3.0, 700.0, 2_500_000.0]);
                overrides.set(RelSet::single(a).insert(b), rows);
            }
        }
        (StubIndexes { indexed, rows }, overrides)
    }

    /// Sequential-scan access paths with the estimator's base-relation estimates.
    fn oracle_base_plans(
        spec: &QuerySpec,
        estimator: &CardinalityEstimator<'_>,
        cost_model: &CostModel,
        indexes: &StubIndexes,
    ) -> Vec<PhysicalPlan> {
        spec.relations
            .iter()
            .map(|relation| PhysicalPlan {
                kind: PlanKind::SeqScan {
                    rel: relation.index,
                    alias: relation.alias.clone(),
                    table: relation.table.clone(),
                    predicate: None,
                },
                children: vec![],
                schema: relation.schema.clone(),
                estimated_rows: estimator.estimate(RelSet::single(relation.index)),
                cost: cost_model.seq_scan(indexes.rows[relation.index], 8.0, 0),
                rel_set: RelSet::single(relation.index),
            })
            .collect()
    }

    /// Naive subset DP: every connected set in increasing size, every split into two
    /// connected halves joined by an edge, priced with the enumerator's own
    /// `cheapest_join`. Returns the cost of the cheapest plan for all relations.
    fn oracle_root_cost(
        enumerator: &JoinEnumerator<'_>,
        graph: &JoinGraph,
        bases: &[PhysicalPlan],
    ) -> Cost {
        let n = bases.len();
        let mut best: HashMap<RelSet, JoinSide> =
            bases.iter().map(|p| (p.rel_set, JoinSide::of(p))).collect();
        let mut sets: Vec<RelSet> = (1..1u64 << n)
            .map(RelSet::from_mask)
            .filter(|s| s.len() >= 2 && graph.is_connected(*s))
            .collect();
        sets.sort_by_key(|s| s.len());
        for set in sets {
            let first = set.min_index().expect("non-empty");
            for s1 in set.nonempty_subsets() {
                // Each unordered split once: the half holding the lowest relation.
                if s1 == set || !s1.contains(first) {
                    continue;
                }
                let s2 = set.difference(s1);
                // Only connected sets have entries, so disconnected halves drop out.
                let (Some(&left), Some(&right)) = (best.get(&s1), best.get(&s2)) else {
                    continue;
                };
                let Some((cost, choice)) = enumerator.cheapest_join(left, right) else {
                    continue;
                };
                if best
                    .get(&set)
                    .map_or(true, |b| cost.is_cheaper_than(b.cost))
                {
                    let side = JoinSide {
                        rel_set: set,
                        cost,
                        estimated_rows: choice.output_rows,
                    };
                    best.insert(set, side);
                }
            }
        }
        best[&RelSet::all(n)].cost
    }

    /// Walk a built tree bottom-up and assert that every join node carries exactly
    /// the cost and estimate that pricing returns for its inputs (in either order:
    /// the build may have swapped them), and every leaf is its base plan unchanged.
    /// Returns the node as a pricing input.
    fn assert_nodes_match_pricing(
        enumerator: &JoinEnumerator<'_>,
        bases: &[PhysicalPlan],
        node: &PhysicalPlan,
    ) -> JoinSide {
        let (a, b) = match node.children.as_slice() {
            [] => {
                let rel = node.rel_set.min_index().expect("leaf covers one relation");
                assert_eq!(node, &bases[rel], "leaf is the base access path");
                return JoinSide::of(node);
            }
            // Index nested loop: the inner base relation is read through its index.
            [outer] => {
                let inner = node.rel_set.difference(outer.rel_set);
                assert_eq!(inner.len(), 1, "index nested-loop inner is one relation");
                let outer = assert_nodes_match_pricing(enumerator, bases, outer);
                (
                    outer,
                    JoinSide::of(&bases[inner.min_index().expect("one relation")]),
                )
            }
            [left, right] => (
                assert_nodes_match_pricing(enumerator, bases, left),
                assert_nodes_match_pricing(enumerator, bases, right),
            ),
            children => panic!("join with {} children", children.len()),
        };
        assert!(a.rel_set.is_disjoint(b.rel_set));
        assert_eq!(node.rel_set, a.rel_set.union(b.rel_set));
        // Join keys are oriented (outer child's column, other input's column).
        let has = |plan: &PhysicalPlan, col: &ColumnRef| {
            plan.schema.contains(col.qualifier.as_deref(), &col.name)
        };
        match &node.kind {
            PlanKind::HashJoin { keys, .. } | PlanKind::MergeJoin { keys, .. } => {
                for (outer_key, other_key) in keys {
                    assert!(has(&node.children[0], outer_key), "{}", node.label());
                    assert!(has(&node.children[1], other_key), "{}", node.label());
                }
            }
            PlanKind::IndexNestedLoopJoin {
                inner_rel,
                outer_key,
                ..
            } => {
                assert_eq!(RelSet::single(*inner_rel), b.rel_set);
                assert!(has(&node.children[0], outer_key), "{}", node.label());
            }
            _ => {}
        }
        let priced = [
            enumerator.cheapest_join(a, b),
            enumerator.cheapest_join(b, a),
        ];
        assert!(
            priced.iter().flatten().any(|(cost, choice)| {
                *cost == node.cost && choice.output_rows == node.estimated_rows
            }),
            "{} node over {} carries {} / {} rows, pricing gives {:?}",
            node.label(),
            node.rel_set,
            node.cost,
            node.estimated_rows,
            priced,
        );
        JoinSide::of(node)
    }

    #[test]
    fn enumerators_build_what_they_priced_and_dpccp_matches_a_subset_oracle() {
        let hash_only = OptimizerConfig {
            enable_index_nl_joins: false,
            enable_merge_joins: false,
            ..OptimizerConfig::default()
        };
        let nested_loop_only = OptimizerConfig {
            enable_hash_joins: false,
            enable_index_nl_joins: false,
            enable_merge_joins: false,
            ..OptimizerConfig::default()
        };
        let merge_only = OptimizerConfig {
            enable_merge_joins: true,
            ..nested_loop_only.clone()
        };
        let configs = [
            OptimizerConfig::default(),
            hash_only,
            merge_only,
            nested_loop_only,
        ];
        let cost_model = CostModel::default();
        let catalog = Catalog::new();
        let mut algorithms_seen: Vec<JoinAlgorithm> = Vec::new();
        let (mut bushy_plans, mut linear_plans) = (0, 0);
        for (shape, n, edges) in ORACLE_SHAPES {
            let spec = spec_with_edges(n, edges);
            let graph = JoinGraph::new(&spec);
            for seed in 0..4u64 {
                let (indexes, overrides) = oracle_inputs(seed * 31 + n as u64, n, edges);
                for config in &configs {
                    let estimator = CardinalityEstimator::new(&spec, &catalog, &overrides);
                    let bases = oracle_base_plans(&spec, &estimator, &cost_model, &indexes);
                    let enumerator = JoinEnumerator::new(
                        &spec,
                        &graph,
                        &estimator,
                        &cost_model,
                        config,
                        &indexes,
                    );
                    let context = format!("{shape} seed {seed} {config:?}");

                    let dp = enumerator
                        .enumerate(bases.clone(), EnumerationAlgorithm::DpCcp)
                        .expect("connected graph plans");
                    assert_eq!(dp.rel_set, RelSet::all(n), "{context}");
                    assert_eq!(dp.join_nodes().len(), n - 1, "{context}");
                    assert_nodes_match_pricing(&enumerator, &bases, &dp);
                    // Every split's total depends only on its inputs' totals, so the
                    // optimum's total does not depend on the order splits are visited.
                    let oracle = oracle_root_cost(&enumerator, &graph, &bases);
                    assert_eq!(dp.cost.total, oracle.total, "{context}");

                    // Greedy, which `greedy_threshold` selects for large queries.
                    let greedy = enumerator
                        .enumerate(bases.clone(), EnumerationAlgorithm::Greedy)
                        .expect("connected graph plans");
                    assert_eq!(greedy.rel_set, RelSet::all(n), "{context}");
                    assert_eq!(greedy.join_nodes().len(), n - 1, "{context}");
                    assert_nodes_match_pricing(&enumerator, &bases, &greedy);
                    assert!(greedy.cost.total >= oracle.total, "{context}");

                    for plan in [&dp, &greedy] {
                        plan.walk(&mut |node| {
                            algorithms_seen.extend(node.join_algorithm());
                        });
                    }
                    let bushy = dp.join_nodes().iter().any(|node| {
                        node.children.len() == 2 && node.children.iter().all(|c| c.is_join())
                    });
                    if bushy {
                        bushy_plans += 1;
                    } else {
                        linear_plans += 1;
                    }
                }
            }
        }
        // The cases exercise every join algorithm and both tree shapes.
        for algorithm in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::IndexNestedLoop,
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Merge,
        ] {
            assert!(
                algorithms_seen.contains(&algorithm),
                "no {algorithm} in any plan"
            );
        }
        assert!(
            bushy_plans > 0 && linear_plans > 0,
            "{bushy_plans} bushy / {linear_plans} linear"
        );
    }

    #[test]
    fn csg_count_matches_known_chain_formula() {
        // For a chain of n nodes the number of csg-cmp pairs is n*(n-1)*(n+1)/6.
        for n in 2..=8 {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let spec = spec_with_edges(n, &edges);
            let graph = JoinGraph::new(&spec);
            let pairs = enumerate_csg_cmp_pairs(&graph, n);
            assert_eq!(pairs.len(), n * (n - 1) * (n + 1) / 6, "chain of {n}");
        }
    }
}
