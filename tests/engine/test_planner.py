"""Unit tests for the planner (AST -> logical plan)."""

import dataclasses

import pytest

from repro.engine.plan import (
    Aggregate, Distinct, Expand, Filter, Join, Limit, Project, Scan, Sort,
    TableFunctionScan, walk_plan,
)
from repro.errors import PlanError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse
from repro.udf import table_udf


def plan_of(db, sql):
    return db.planner.plan_select(parse(sql))


class TestShapes:
    def test_scan_project(self, db):
        planned = plan_of(db, "SELECT name FROM people")
        assert isinstance(planned.root, Project)
        assert isinstance(planned.root.child, Scan)

    def test_filter_position(self, db):
        planned = plan_of(db, "SELECT name FROM people WHERE age > 1")
        assert isinstance(planned.root.child, Filter)

    def test_aggregate_plan(self, db):
        planned = plan_of(
            db, "SELECT city, count(*) AS n FROM people GROUP BY city"
        )
        kinds = [type(n).__name__ for n in walk_plan(planned.root)]
        assert "Aggregate" in kinds

    def test_aggregate_output_schema(self, db):
        planned = plan_of(db, "SELECT count(*) AS n, sum(age) AS s FROM people")
        assert [f.name for f in planned.root.schema] == ["n", "s"]

    def test_having_becomes_filter_above_aggregate(self, db):
        planned = plan_of(
            db,
            "SELECT city FROM people GROUP BY city HAVING count(*) > 1",
        )
        nodes = list(walk_plan(planned.root))
        agg_index = next(
            i for i, n in enumerate(nodes) if isinstance(n, Aggregate)
        )
        filter_index = next(
            i for i, n in enumerate(nodes) if isinstance(n, Filter)
        )
        assert filter_index < agg_index  # filter is above (pre-order walk)

    def test_expand_for_table_udf_in_select(self, db):
        planned = plan_of(db, "SELECT id, t_tokens(body) AS tok FROM docs")
        assert isinstance(planned.root, Expand)
        assert planned.root.out_names == ("tok",)

    def test_two_table_udfs_in_select_rejected(self, db):
        with pytest.raises(PlanError):
            plan_of(db, "SELECT t_tokens(body), t_tokens(body) FROM docs")

    def test_table_function_scan(self, db):
        planned = plan_of(
            db, "SELECT token FROM t_tokens((SELECT body FROM docs)) AS tk"
        )
        kinds = [type(n).__name__ for n in walk_plan(planned.root)]
        assert "TableFunctionScan" in kinds

    def test_ctes_planned_in_order(self, db):
        planned = plan_of(
            db,
            "WITH a AS (SELECT id FROM people), b AS (SELECT id FROM a) "
            "SELECT id FROM b",
        )
        assert [name for name, _ in planned.ctes] == ["a", "b"]

    def test_sort_limit(self, db):
        planned = plan_of(db, "SELECT id FROM people ORDER BY id LIMIT 1")
        assert isinstance(planned.root, Limit)
        assert isinstance(planned.root.child, Sort)

    def test_distinct_node(self, db):
        planned = plan_of(db, "SELECT DISTINCT city FROM people")
        kinds = [type(n).__name__ for n in walk_plan(planned.root)]
        assert "Distinct" in kinds

    def test_join_schema_concatenation(self, db):
        planned = plan_of(
            db, "SELECT p1.id FROM people AS p1 CROSS JOIN people AS p2"
        )
        join = next(n for n in walk_plan(planned.root) if isinstance(n, Join))
        assert len(join.schema) == 10

    def test_star_expansion(self, db):
        planned = plan_of(db, "SELECT * FROM people")
        assert len(planned.root.schema) == 5

    def test_qualified_star(self, db):
        planned = plan_of(
            db, "SELECT p1.* FROM people AS p1 CROSS JOIN people AS p2"
        )
        assert len(planned.root.schema) == 5


class TestOrderByResolution:
    def test_order_by_select_alias(self, db):
        planned = plan_of(db, "SELECT age AS a FROM people ORDER BY a")
        assert isinstance(planned.root, Sort)

    def test_order_by_hidden_input_column(self, db):
        planned = plan_of(db, "SELECT name FROM people ORDER BY age")
        # hidden sort column: final projection restores the 1-col schema
        assert [f.name for f in planned.root.schema] == ["name"]

    def test_order_by_unresolvable(self, db):
        with pytest.raises(PlanError):
            plan_of(db, "SELECT name FROM people ORDER BY nonexistent")


class TestSetOps:
    def test_arity_mismatch(self, db):
        with pytest.raises(PlanError):
            plan_of(db, "SELECT id, name FROM people UNION SELECT id FROM people")


@table_udf(output=("n",), types=(int,))
def t_steps(inp_datagen, start: int, step: int):
    for k in range(3):
        yield (start + k * step,)


def scan_of(planned):
    return next(
        n for n in walk_plan(planned.root) if isinstance(n, TableFunctionScan)
    )


class TestTableFunctionArguments:
    """A table UDF in FROM takes literal arguments (plus one subquery)."""

    @pytest.fixture
    def steps_db(self, db):
        db.register_udf(t_steps)
        return db

    def test_literal_arguments_reach_the_udf(self, steps_db):
        planned = plan_of(steps_db, "SELECT n FROM t_steps(1, -3) AS g")
        assert tuple(scan_of(planned).const_args) == (1, -3)
        out = steps_db.execute("SELECT n FROM t_steps(1, -3) AS g")
        assert out.to_rows() == [(1,), (-2,), (-5,)]

    def test_negated_literal_node(self, steps_db):
        # The parser folds "-3" into Literal(-3); an AST built elsewhere
        # may carry the negation as a node.
        statement = parse("SELECT n FROM t_steps(2, 3) AS g")
        ref = statement.from_items[0]
        negated = ast.UnaryOp("-", ast.Literal(3))
        call = dataclasses.replace(ref.call, args=(ast.Literal(2), negated))
        statement = dataclasses.replace(
            statement, from_items=(dataclasses.replace(ref, call=call),)
        )
        planned = steps_db.planner.plan_select(statement)
        assert tuple(scan_of(planned).const_args) == (2, -3)

    def test_non_literal_argument_rejected(self, steps_db):
        with pytest.raises(PlanError, match="must be literals"):
            plan_of(steps_db, "SELECT n FROM t_steps(1, id) AS g")
        with pytest.raises(PlanError, match="must be literals"):
            plan_of(steps_db, "SELECT n FROM t_steps(1, 2 + 3) AS g")
