"""The rank-facing surface is what rank programs call.

Two guards on the substrate's MPI surface:

* a census — every public :class:`MpiApi` method and every op class the
  process driver exports has a caller among the non-test rank programs
  (``src/repro/apps``, plus ``examples/`` — the paper's Fig. 1 scenario
  is the one forced ``checkpoint()``) or is what a called collective is
  built from, so the surface cannot regrow without a caller;
* a literal trace of the process driver — a script through every waiting
  state of :class:`Proc` (a receive blocked on ``ANY_SOURCE``, an
  unexpected-queue match, a rank held by ``pause`` and released by
  ``unpause``, a parked resume, a kill and restart), pinned to the event
  count, virtual times and delivery orders the driver produced before its
  queues became slots.
"""

import ast
import inspect
import pathlib

import repro.apps
from repro.apps.base import RankProgram
from repro.simmpi import ANY_SOURCE, ANY_TAG, World, collectives, process
from repro.simmpi.api import MpiApi


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------
def _attr_calls(tree, owner):
    """Names ``m`` of every ``<owner>.m(...)`` call in ``tree``."""
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == owner
    }


def _called_by_rank_programs():
    apps = pathlib.Path(repro.apps.__file__).parent
    examples = pathlib.Path(__file__).parents[2] / "examples"
    called = set()
    for path in sorted(apps.glob("*.py")) + sorted(examples.glob("*.py")):
        called |= _attr_calls(ast.parse(path.read_text()), "api")
    return called


def _collective_closure(called):
    """``called`` plus the collectives a called collective is built from
    (module-level calls between the functions of ``collectives.py``)."""
    tree = ast.parse(inspect.getsource(collectives))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reached, frontier = set(), [name for name in called if name in functions]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(
            node.func.id for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in functions)
    return called | reached


def test_every_api_method_has_a_rank_program_caller():
    public = {name for name, member in vars(MpiApi).items()
              if inspect.isfunction(member) and not name.startswith("_")}
    used = _collective_closure(_called_by_rank_programs())
    assert public - used == set(), (
        f"MpiApi methods no rank program calls: {sorted(public - used)}")
    # and the collectives module offers nothing beyond them
    offered = set(collectives.__all__) - {"collective_tag"}
    assert offered - used == set()


def test_every_op_class_is_built_by_a_called_api_method():
    ops = {name for name in process.__all__ if name.endswith("Op")}
    used = _collective_closure(_called_by_rank_programs())
    built = {
        call.func.id
        for method in ast.walk(ast.parse(inspect.getsource(MpiApi)))
        if isinstance(method, ast.FunctionDef) and method.name in used
        for call in ast.walk(method)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }
    assert ops - built == set(), (
        f"op classes no called api method builds: {sorted(ops - built)}")


# ----------------------------------------------------------------------
# Literal trace of the process driver
# ----------------------------------------------------------------------
def _p0(api, out):
    yield api.send(2, "a0", tag=1)
    yield api.send(2, "b0", tag=2)
    out.append((yield api.recv(2, tag=9)))            # parked while paused
    yield api.send(1, "z0", tag=7)


def _p1(api, out):
    yield api.compute(2e-5)
    yield api.send(2, "a1", tag=1)
    out.append((yield api.recv(ANY_SOURCE, tag=5)))   # killed while waiting
    yield api.send(2, "c1", tag=3)
    out.append((yield api.recv(0, tag=7)))
    out.append((yield api.now()))


def _p2(api, out):
    yield api.compute(1e-4)                           # arrivals pile up
    out.append((yield api.recv(0, tag=2)))            # skips two queued ones
    out.append((yield api.recv(ANY_SOURCE, ANY_TAG)))
    out.append((yield api.recv(ANY_SOURCE, ANY_TAG)))
    yield api.send(0, "g2", tag=9)                    # held until unpause
    yield api.send(1, "k2", tag=5)
    out.append((yield api.recv(1, tag=3)))            # completes on delivery
    out.append((yield api.recv(ANY_SOURCE, tag=1)))   # rank 1's re-sent a1
    out.append((yield api.now()))


class Script(RankProgram):
    bodies = {0: _p0, 1: _p1, 2: _p2}

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"out": []}

    def run(self, api):
        yield from self.bodies[api.rank](api, self.state["out"])


def test_proc_literal_trace():
    world = World(3, Script, record_sequences=True)
    world.launch()
    world.run(until=5e-5)
    world.procs[2].pause()                            # held inside its compute
    world.run(until=1.5e-4)
    assert [p.describe_block() for p in world.procs] == [
        "recv(src=2, tag=9)", "recv(src=-1, tag=5)", "paused"]
    # rank 1 fails inside its receive and restarts from scratch; rank 0 is
    # paused too, as a recovery round pauses the survivors
    proc = world.procs[1]
    proc.kill()
    proc.alive = True
    world.programs[1].restore({"out": []})
    proc.start(world.programs[1].run(world.apis[1]))
    world.procs[0].pause()
    world.run(until=2e-4)
    world.procs[2].unpause()                          # releases the held rank
    world.run(until=3e-4)
    assert world.programs[0].state["out"] == []       # "g2" matched, parked
    world.procs[0].unpause()                          # flushes the parked value
    final = world.run()

    assert world.engine.events_dispatched == 28
    assert final == 0.00030250168067226887
    assert [p.state["out"] for p in world.programs] == [
        ["g2"],
        ["k2", "z0", 0.00030250168067226887],
        ["b0", "a0", "a1", "c1", "a1", 0.00020530336134453786],
    ]
    assert world.tracer.deliver_sequences() == [
        [(2, 9, 2)],
        [(2, 5, 2), (0, 7, 2)],
        [(0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 1, 2), (1, 3, 2)],
    ]
    assert [len(s) for s in world.tracer.deliver_sequences()] == [1, 2, 5]
    assert [p.app_messages_sent for p in world.procs] == [3, 3, 2]
    assert [p.incarnation for p in world.procs] == [0, 1, 0]
