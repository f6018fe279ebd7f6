"""The project call graph: definition collection, resolution, SCC order.

Resolution is name-and-module based (no type inference), so every test
spells out one resolvable shape from the module docstring's list — plus
the conservative behaviours: unknown callees stay visible as unresolved
sites, and ambiguity drops resolution rather than guessing.
"""

import textwrap

from repro_lint import SourceFile
from repro_lint.callgraph import (
    Project,
    build_call_graph,
    calls_in_function,
    module_name_for,
)


def source(path: str, text: str) -> SourceFile:
    return SourceFile.parse(path, textwrap.dedent(text))


def project(files: dict) -> Project:
    return Project([source(path, text) for path, text in files.items()])


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/serve/service.py") == (
            "repro.serve.service"
        )

    def test_package_init_is_the_package(self):
        assert module_name_for("src/repro/serve/__init__.py") == "repro.serve"

    def test_windows_separators(self):
        assert module_name_for("src\\repro\\cli.py") == "repro.cli"

    def test_no_src_anchor_keeps_all_parts(self):
        assert module_name_for("tools/gen.py") == "tools.gen"


class TestResolution:
    def test_module_function_call(self):
        p = project(
            {
                "src/repro/a.py": """
                def helper():
                    return 1

                def caller():
                    return helper()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:caller"]
        assert site.callees == ("repro.a:helper",)
        assert site.name == "helper"

    def test_nested_def_shadows_module_function(self):
        p = project(
            {
                "src/repro/a.py": """
                def helper():
                    return 1

                def caller():
                    def helper():
                        return 2
                    return helper()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:caller"]
        assert site.callees == ("repro.a:caller.<locals>.helper",)

    def test_self_method_call(self):
        p = project(
            {
                "src/repro/a.py": """
                class Service:
                    def step(self):
                        return 1

                    def run(self):
                        return self.step()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:Service.run"]
        assert site.callees == ("repro.a:Service.step",)

    def test_instantiation_resolves_to_init(self):
        p = project(
            {
                "src/repro/a.py": """
                class Service:
                    def __init__(self):
                        self.state = {}

                def boot():
                    return Service()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:boot"]
        assert site.callees == ("repro.a:Service.__init__",)

    def test_from_import_across_modules(self):
        p = project(
            {
                "src/repro/util.py": """
                def clamp(x):
                    return max(0, x)
                """,
                "src/repro/a.py": """
                from repro.util import clamp

                def caller(x):
                    return clamp(x)
                """,
            }
        )
        sites = p.graph.calls["repro.a:caller"]
        resolved = [s for s in sites if s.resolved]
        assert [s.callees for s in resolved] == [("repro.util:clamp",)]

    def test_module_attribute_call(self):
        p = project(
            {
                "src/repro/util.py": """
                def clamp(x):
                    return x
                """,
                "src/repro/a.py": """
                import repro.util as util

                def caller(x):
                    return util.clamp(x)
                """,
            }
        )
        (site,) = p.graph.calls["repro.a:caller"]
        assert site.callees == ("repro.util:clamp",)

    def test_inherited_method_found_on_base(self):
        p = project(
            {
                "src/repro/a.py": """
                class Base:
                    def step(self):
                        return 1

                class Derived(Base):
                    def run(self):
                        return self.step()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:Derived.run"]
        assert site.callees == ("repro.a:Base.step",)

    def test_field_type_dispatch(self):
        """``self.worker.run()`` through ``self.worker = Worker(...)``."""
        p = project(
            {
                "src/repro/a.py": """
                class Worker:
                    def run(self):
                        return 1

                class Owner:
                    def __init__(self):
                        self.worker = Worker()

                    def go(self):
                        return self.worker.run()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:Owner.go"]
        assert site.callees == ("repro.a:Worker.run",)

    def test_ambiguous_field_type_stays_unresolved(self):
        p = project(
            {
                "src/repro/a.py": """
                class A:
                    def run(self):
                        return 1

                class B:
                    def run(self):
                        return 2

                class Owner:
                    def __init__(self, flag):
                        if flag:
                            self.worker = A()
                        else:
                            self.worker = B()

                    def go(self):
                        return self.worker.run()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:Owner.go"]
        assert not site.resolved

    def test_unknown_callee_recorded_with_dotted_name(self):
        p = project(
            {
                "src/repro/a.py": """
                def caller(sock):
                    sock.close()
                """
            }
        )
        (site,) = p.graph.calls["repro.a:caller"]
        assert not site.resolved
        assert site.name == "sock.close"
        assert site in p.graph.unresolved_sites()

    def test_callers_of_inverts_callees_of(self):
        p = project(
            {
                "src/repro/a.py": """
                def helper():
                    return 1

                def one():
                    return helper()

                def two():
                    return helper() + helper()
                """
            }
        )
        assert p.graph.callers_of("repro.a:helper") == [
            "repro.a:one",
            "repro.a:two",
        ]
        assert p.graph.callees_of("repro.a:two") == ["repro.a:helper"]


class TestSccOrder:
    def test_callees_come_before_callers(self):
        p = project(
            {
                "src/repro/a.py": """
                def leaf():
                    return 1

                def mid():
                    return leaf()

                def top():
                    return mid()
                """
            }
        )
        order = [fid for component in p.graph.sccs() for fid in component]
        assert order.index("repro.a:leaf") < order.index("repro.a:mid")
        assert order.index("repro.a:mid") < order.index("repro.a:top")

    def test_mutual_recursion_is_one_component(self):
        p = project(
            {
                "src/repro/a.py": """
                def even(n):
                    return n == 0 or odd(n - 1)

                def odd(n):
                    return n != 0 and even(n - 1)
                """
            }
        )
        components = p.graph.sccs()
        assert ["repro.a:even", "repro.a:odd"] in components

    def test_order_is_deterministic(self):
        files = {
            "src/repro/a.py": """
            from repro.b import g

            def f():
                return g()
            """,
            "src/repro/b.py": """
            def g():
                return h()

            def h():
                return g()
            """,
        }
        assert project(files).graph.sccs() == project(files).graph.sccs()


class TestProject:
    def test_from_paths_skips_unparseable(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        p = Project.from_paths(
            [(str(good), "good.py"), (str(bad), "bad.py")]
        )
        assert [s.path for s in p.sources] == ["good.py"]

    def test_functions_in_filters_by_source(self):
        p = project(
            {
                "src/repro/a.py": "def f():\n    return 1\n",
                "src/repro/b.py": "def g():\n    return 2\n",
            }
        )
        (src_a,) = [s for s in p.sources if s.path == "src/repro/a.py"]
        assert [i.id for i in p.functions_in(src_a)] == ["repro.a:f"]

    def test_summaries_computed_once_and_shared(self):
        p = project({"src/repro/a.py": "def f():\n    return 1\n"})
        assert p.summaries() is p.summaries()


class TestScopeWalk:
    def test_calls_in_function_excludes_nested_scopes(self):
        tree = source(
            "src/repro/a.py",
            """
            def outer():
                inner_result = direct()

                def nested():
                    return hidden()

                return inner_result
            """,
        )
        (func,) = tree.tree.body
        names = [call.func.id for call in calls_in_function(tree, func)]
        assert names == ["direct"]

    def test_nested_default_exprs_belong_to_enclosing_scope(self):
        tree = source(
            "src/repro/a.py",
            """
            def outer():
                def nested(x=default()):
                    return hidden()
                return nested
            """,
        )
        (func,) = tree.tree.body
        names = [call.func.id for call in calls_in_function(tree, func)]
        assert names == ["default"]

    def test_walk_yields_nested_def_without_entering(self):
        tree = source(
            "src/repro/a.py",
            """
            def outer():
                def nested():
                    return hidden()
                return nested
            """,
        )
        import ast

        (func,) = tree.tree.body
        kinds = [type(n).__name__ for n in tree.walk_in_scope(func)]
        assert "FunctionDef" in kinds  # nested def itself is visible
        assert not any(
            isinstance(n, ast.Call) for n in tree.walk_in_scope(func)
        )


class TestBuildOverRealTree:
    def test_graph_covers_every_def_in_src(self):
        """Corpus guarantee: no ``def`` of the repo is invisible."""
        import ast as ast_mod
        from pathlib import Path

        from repro_lint.runner import discover_files

        repo = Path(__file__).resolve().parents[2]
        files = [
            (str(path), path.relative_to(repo).as_posix())
            for path in discover_files([repo / "src"])
        ]
        p = Project.from_paths(files)
        expected = 0
        for s in p.sources:
            expected += sum(
                isinstance(node, (ast_mod.FunctionDef, ast_mod.AsyncFunctionDef))
                for node in ast_mod.walk(s.tree)
            )
        assert len(p.graph.functions) == expected
        assert len(p.graph.functions) > 500
