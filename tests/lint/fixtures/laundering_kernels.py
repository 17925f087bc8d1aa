"""Second negative control for ``repro certify`` (CI `certify` job and
``test_laundering_fixtures_are_all_violations``): nine rank programs that
are NOT send-deterministic and that the certifier registered PROVEN_SD
until its walker stopped enumerating AST children by hand.  The first
five route a ``recv(ANY_SOURCE)`` result into a send through a child a
per-node handler forgot; the last four iterate a set in a form ``repro
lint`` flags as RPD003 on the same line.  Never imported, only analyzed.
"""

from repro.apps.base import RankProgram
from repro.simmpi.message import ANY_SOURCE


class FSpec(RankProgram):
    """f-string *format spec* (the value is a constant)."""

    def run(self, api):
        w = yield from api.recv(ANY_SOURCE)
        yield from api.send(0, f"{1:{w}}")


class CompIf(RankProgram):
    """comprehension condition: the list's length is arrival-ordered."""

    def run(self, api):
        w = yield from api.recv(ANY_SOURCE)
        yield from api.send(0, [1 for _ in range(4) if w > 2])


class LambdaCapture(RankProgram):
    """free variable of a lambda."""

    def run(self, api):
        w = yield from api.recv(ANY_SOURCE)
        f = lambda: w  # noqa: E731
        yield from api.send(0, f())


class KeyStore(RankProgram):
    """subscript-store *index*: the dict's key set is arrival-ordered."""

    def run(self, api):
        w = yield from api.recv(ANY_SOURCE)
        d = {}
        d[w] = 1
        yield from api.send(0, list(d))


class MatchStmt(RankProgram):
    """statements inside ``match`` cases."""

    def run(self, api):
        w = yield from api.recv(ANY_SOURCE)
        match w:
            case 1:
                yield from api.send(0, 1.0)
            case _:
                yield from api.send(1, 2.0)


class SetUnion(RankProgram):
    def run(self, api):
        a = {1, 2}
        for x in a | {3}:
            yield from api.send(0, x)


class SetMethod(RankProgram):
    def run(self, api):
        a = {1, 2}
        for x in a.union({3}):
            yield from api.send(0, x)


class SetAnn(RankProgram):
    def run(self, api):
        a: set[int] = set()
        a.add(1)
        for x in a:
            yield from api.send(0, x)


class SetListed(RankProgram):
    def run(self, api):
        a = {1, 2}
        for x in list(a):
            yield from api.send(0, x)
