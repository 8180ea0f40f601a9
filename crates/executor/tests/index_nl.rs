//! Index nested-loop join battery: every fetch-path edge case, at 1 and 2 threads
//! and at batch sizes that make the operator suspend mid-match-list, must return
//! exactly the rows of the forced single-threaded row-engine reference. A hash-join
//! plan of the same query is a second, independent oracle: it never touches the
//! index-NL fetch path.

use reopt_catalog::Catalog;
use reopt_executor::{Executor, DEFAULT_BATCH_SIZE};
use reopt_planner::{CardinalityOverrides, Optimizer, OptimizerConfig, PhysicalPlan, PlanKind};
use reopt_sql::parse_sql;
use reopt_storage::{Column, DataType, IndexKind, Row, Schema, Storage, Table, Value};

/// `outer_t` (2 000 rows) joins `inner_t` (500 rows, hash index on `grp`) on `grp`.
/// Every 7th outer key is NULL and outer groups 50..59 have no inner match; each
/// matched group fans out to 10 inner rows.
fn build_env(with_index: bool) -> (Storage, Catalog) {
    let mut outer = Table::new(
        "outer_t",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("w", DataType::Int),
            Column::new("name", DataType::Text),
        ]),
    );
    for i in 0..2_000i64 {
        let grp = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int(i % 60)
        };
        outer
            .push_row(Row::from_values(vec![
                Value::Int(i),
                grp,
                Value::Int(i % 4),
                Value::from(format!("o{}", i % 13)),
            ]))
            .unwrap();
    }
    let mut inner = Table::new(
        "inner_t",
        Schema::new(vec![
            Column::not_null("grp", DataType::Int),
            Column::new("weight", DataType::Int),
            Column::new("tag", DataType::Text),
        ]),
    );
    for i in 0..500i64 {
        inner
            .push_row(Row::from_values(vec![
                Value::Int(i % 50),
                Value::Int(i % 3),
                Value::from(format!("tag{}", i % 5)),
            ]))
            .unwrap();
    }
    inner
        .create_index("inner_grp", "grp", IndexKind::Hash)
        .unwrap();
    let mut storage = Storage::new();
    storage.create_table(outer).unwrap();
    storage.create_table(inner).unwrap();
    let mut catalog = Catalog::new();
    catalog.analyze_all(&storage).unwrap();
    if !with_index {
        // Planned with the index, executed without it: the operator must fall back
        // to its transient lookup map.
        storage
            .table_mut("inner_t")
            .unwrap()
            .drop_index("inner_grp")
            .unwrap();
    }
    (storage, catalog)
}

fn plan(sql: &str, storage: &Storage, catalog: &Catalog, config: OptimizerConfig) -> PhysicalPlan {
    let statement = parse_sql(sql).unwrap();
    Optimizer::new(config)
        .plan_select(
            statement.query().unwrap(),
            storage,
            catalog,
            &CardinalityOverrides::new(),
        )
        .unwrap()
        .plan
}

fn index_nl_only() -> OptimizerConfig {
    OptimizerConfig {
        enable_hash_joins: false,
        enable_merge_joins: false,
        ..OptimizerConfig::default()
    }
}

fn hash_only() -> OptimizerConfig {
    OptimizerConfig {
        enable_index_nl_joins: false,
        enable_merge_joins: false,
        ..OptimizerConfig::default()
    }
}

/// The (inner predicate, residual) presence of the plan's index-NL join.
fn index_nl_shape(plan: &PhysicalPlan) -> Option<(bool, bool)> {
    if let PlanKind::IndexNestedLoopJoin {
        inner_predicate,
        residual,
        ..
    } = &plan.kind
    {
        return Some((inner_predicate.is_some(), residual.is_some()));
    }
    plan.children.iter().find_map(index_nl_shape)
}

fn sorted_rows(rows: &[Row]) -> Vec<String> {
    let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
    rendered.sort();
    rendered
}

/// Run `sql` through an index-NL plan under every thread count and batch size, on
/// storage with and without the inner index, and check each run against both
/// references. Returns the reference row count.
fn check(sql: &str, inner_predicate: bool, residual: bool) -> usize {
    let (storage, catalog) = build_env(true);
    let index_plan = plan(sql, &storage, &catalog, index_nl_only());
    assert_eq!(
        index_nl_shape(&index_plan),
        Some((inner_predicate, residual)),
        "unexpected plan shape for {sql}:\n{index_plan:?}"
    );
    let reference = Executor::new(&storage)
        .with_threads(1)
        .with_columnar(false)
        .execute(&index_plan)
        .unwrap();
    let expected = sorted_rows(&reference.rows);
    let hash_plan = plan(sql, &storage, &catalog, hash_only());
    assert_eq!(index_nl_shape(&hash_plan), None);
    let oracle = Executor::new(&storage)
        .with_threads(1)
        .with_columnar(false)
        .execute(&hash_plan)
        .unwrap();
    assert_eq!(
        sorted_rows(&oracle.rows),
        expected,
        "hash-join oracle disagrees on {sql}"
    );

    for with_index in [true, false] {
        let (storage, _) = build_env(with_index);
        for threads in [1usize, 2] {
            for batch_size in [1usize, 3, DEFAULT_BATCH_SIZE] {
                let result = Executor::with_batch_size(&storage, batch_size)
                    .with_threads(threads)
                    .execute(&index_plan)
                    .unwrap();
                assert_eq!(
                    sorted_rows(&result.rows),
                    expected,
                    "threads={threads} batch={batch_size} index={with_index}: {sql}"
                );
            }
        }
    }
    expected.len()
}

#[test]
fn inner_predicate_rejecting_every_match_yields_nothing() {
    let rows = check(
        "SELECT o.id, i.tag FROM outer_t AS o, inner_t AS i
         WHERE o.grp = i.grp AND i.tag LIKE '%z%'",
        true,
        false,
    );
    assert_eq!(rows, 0);
}

#[test]
fn null_outer_keys_never_match() {
    // 1 714 non-NULL outer keys, of which those in groups 0..49 match 10 rows each.
    let rows = check(
        "SELECT o.id, o.name, i.weight, i.tag FROM outer_t AS o, inner_t AS i
         WHERE o.grp = i.grp",
        false,
        false,
    );
    let matched = (0..2_000).filter(|i| i % 7 != 0 && i % 60 < 50).count();
    assert_eq!(rows, matched * 10);
}

#[test]
fn inner_predicate_keeping_some_matches() {
    let rows = check(
        "SELECT o.id, i.tag FROM outer_t AS o, inner_t AS i
         WHERE o.grp = i.grp AND i.tag = 'tag2'",
        true,
        false,
    );
    assert!(rows > 0);
}

#[test]
fn residual_on_the_joined_row() {
    let rows = check(
        "SELECT o.id, o.w, i.weight FROM outer_t AS o, inner_t AS i
         WHERE o.grp = i.grp AND o.w = i.weight",
        false,
        true,
    );
    assert!(rows > 0);
}

#[test]
fn inner_predicate_and_residual_together() {
    let rows = check(
        "SELECT o.id, o.name, i.tag FROM outer_t AS o, inner_t AS i
         WHERE o.grp = i.grp AND o.w = i.weight AND i.tag <> 'tag0'",
        true,
        true,
    );
    assert!(rows > 0);
}
