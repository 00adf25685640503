"""The two document workloads: reads beside writes, and a new query text per call."""

from __future__ import annotations

from typing import List

import repro
from repro.core.objects import Atom, SetObject, TupleObject
from repro.store.updates import insert_element
from repro.workloads import make_document_collection

from e2e import expect
from e2e.workloads.base import ProbeInputs, ProbeQuery, Workload

__all__ = ["AdhocFrontend", "DocMixed"]

AUTHORS = ("john", "mary", "susan", "peter")
WORDS = ("lattice", "object", "calculus", "nested", "query", "join", "model", "index")

READ = "[docs: {[title: $t, author: A, sections: {[heading: H, length: L]}]}]"


def balanced_documents(count: int, seed: int) -> SetObject:
    """``count`` generated documents: a fifth by each author, a fifth by none.

    The generator draws authors at random, so the size of "every document by
    mary" — and with it the cost of the analytic queries — would move with
    the seed; taking a fixed number per author from a larger draw keeps the
    work the same and only the content seeded.
    """
    share = count // 5
    factor = 1.5
    while True:
        wanted = dict.fromkeys(AUTHORS, share)
        wanted[None] = count - share * len(AUTHORS)
        picked = []
        # + 60: headroom for small counts, so that one seed in ten thousand,
        # not one in five, pays for a second draw (and a doubled set-up).
        drawn = make_document_collection(round(count * factor) + 60, 4, 5, rng=seed)
        for document in drawn.get("docs").elements:
            author = document.get("author")
            key = author.value if isinstance(author, Atom) else None
            if wanted[key]:
                wanted[key] -= 1
                picked.append(document)
        if not any(wanted.values()):
            return SetObject(picked)
        factor *= 2


def _new_document(rng, title: str) -> TupleObject:
    sections = [
        TupleObject(
            {
                "heading": Atom(f"section{index}"),
                "keywords": SetObject(Atom(rng.choice(WORDS)) for _ in range(3)),
                "length": Atom(rng.randrange(1, 100)),
            }
        )
        for index in range(2)
    ]
    return TupleObject(
        {
            "title": Atom(title),
            "author": Atom(rng.choice(AUTHORS)),
            "sections": SetObject(sections),
        }
    )


class DocMixed(Workload):
    """A seeded 80/20 interleaving of parameterised reads and path-inserts.

    Every insert rewrites the whole ``library`` object to the WAL and
    invalidates the cached plan, so the next read re-walks the statistics.
    Nothing compacts, so the reopen replays one whole library per write.
    """

    name = "doc_mixed"
    SETUPS = 10  # half a second each
    REOPENS = 6  # each replays the whole log: seconds, not milliseconds

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.documents = max(10, round(800 * scale))
        self.library = TupleObject({"docs": balanced_documents(self.documents, seed)})
        self.rows = expect.doc_rows(self.library.get("docs"))
        self.titles: List[str] = sorted(self.rows)
        self.ops = self.count(300, floor=10)
        # Exactly one op in five writes and one read in twenty misses: fixed
        # shares in a seeded order, so the mean does not move with the seed.
        reads = self.ops - self.ops // 5
        self.kinds = ["write"] * (self.ops // 5) + ["miss"] * (reads // 20)
        self.kinds += ["read"] * (self.ops - len(self.kinds))
        self.rng.shuffle(self.kinds)

    def setup(self) -> None:
        session = self.session = repro.connect(self.wal_path)
        session.put("library", self.library)
        self.read = session.prepare(READ, against="library")
        self._read(self.titles[0])
        document, work = self._insertion("warm")
        session.transact(work)
        self.loaded = [self.library, document]
        self._read("warm")

    def _read(self, title):
        return self.read.execute(t=title).all()

    def _insertion(self, title):
        """A seeded new document, the model updated, and the transaction body."""
        document = _new_document(self.rng, title)
        self.rows.update(expect.doc_rows(SetObject([document])))
        self.titles.append(title)

        def work(txn):
            txn.put("library", insert_element(txn.get("library"), "docs", document))

        return document, work

    def run(self, clock) -> None:
        session = self.session
        for index, kind in enumerate(self.kinds):
            if kind == "write":
                document, work = self._insertion(f"new{index}")
                self.wrote(document)
                clock.step("op", lambda: clock.part("write", lambda: session.transact(work)))
            else:
                title = f"none{index}" if kind == "miss" else self.rng.choice(self.titles)
                clock.step(
                    "op",
                    lambda: clock.part("read", lambda: self._read(title)),
                    check=lambda answer: expect.doc_answer(answer)
                    == expect.doc_expected(self.rows, title),
                )

    def first_read(self):
        return self.session.prepare(READ, against="library").execute(t=self.titles[-1]).all()

    def check_reopened(self, answer) -> bool:
        return expect.doc_answer(answer) == expect.doc_expected(self.rows, self.titles[-1])

    def acked_lost(self) -> int:
        stored = expect.doc_rows(self.session.get("library").get("docs"))
        return sum(1 for title, row in self.rows.items() if stored.get(title) != row)

    def probe_inputs(self) -> ProbeInputs:
        library = self.session.get("library")
        return ProbeInputs(
            queries=[ProbeQuery(READ, {"t": self.titles[0]}, library)],
            written=[library],
            build=lambda: balanced_documents(self.documents, self.seed),
        )


class AdhocFrontend(Workload):
    """``prepare(src, lint="warn")`` + ``.execute().all()`` on a text never seen before.

    Four templates, made distinct by their variable names and seeded
    constants, so every op misses the lint-report, compile and plan caches —
    the parse-per-call discipline of the CLI.  One op in twenty is checked
    against the Definition 4.2 interpreter.
    """

    name = "adhoc_frontend"
    SETUPS = 60  # 30 ms each
    #: Template of each op in a cycle of eight.  Half the ops use one template
    #: (2), so the median sits inside its mode and not in the gap between two.
    MIX = (1, 2, 2, 0, 2, 1, 2, 3)
    RULES = (
        "[long: {T}] :- [library: {[title: T, sections: {[length: 90]}]}]."
        " [byauthor: {[author: A, title: T]}] :- [library: {[title: T, author: A]}]."
    )

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.documents = max(10, round(50 * scale))
        self.docs = balanced_documents(self.documents, seed)
        self.rows = expect.doc_rows(self.docs)
        self.titles = sorted(self.rows)
        self.ops = self.count(3000, floor=16)

    def setup(self) -> None:
        session = self.session = repro.connect(self.wal_path)
        session.put("library", self.docs)
        self.loaded = [self.docs]
        session.register(self.RULES)
        for index in range(4):
            session.prepare(self._text(f"w{index}", index), lint="warn").execute().all()

    def _text(self, tag, template: int) -> str:
        """A query text no earlier call used: ``tag`` makes its variables unique."""
        rng = self.rng
        if template == 0:
            return (
                f"[library: {{[title: {rng.choice(self.titles)}, author: A{tag},"
                f" sections: {{[heading: H{tag}, length: L{tag}]}}]}}]"
            )
        if template == 1:
            return f"[library: {{[title: T{tag}, author: {rng.choice(AUTHORS)}]}}]"
        if template == 2:
            return (
                f"[library: {{[title: T{tag}, sections: {{[length: {rng.randrange(1, 100)},"
                f" heading: H{tag}]}}]}}]"
            )
        return (
            f"[library: {{[title: T{tag}, sections: {{[keywords: {{{rng.choice(WORDS)}}},"
            f" heading: section{rng.randrange(4)}]}}]}}]"
        )

    def run(self, clock) -> None:
        session = self.session
        database = session.database.as_object()
        for index in range(self.ops):
            text = self._text(index, self.MIX[index % len(self.MIX)])

            def op():
                query = clock.part("prepare", lambda: session.prepare(text, lint="warn"))
                return query.execute().all()

            sampled = index % 20 == 0
            clock.step(
                "op",
                op,
                check=(lambda answer: answer == expect.oracle(text, database))
                if sampled
                else None,
            )

    def first_read(self):
        return self.session.get("library")

    def check_reopened(self, library) -> bool:
        return expect.doc_rows(library) == self.rows

    def probe_inputs(self) -> ProbeInputs:
        database = self.session.database.as_object()
        return ProbeInputs(
            # Fresh texts, so the probes miss the caches exactly as the ops do.
            queries=[
                ProbeQuery(self._text(f"p{index}", index % 4), {}, database)
                for index in range(8)
            ],
            rules_text=self.RULES,
            database=database,
            written=[self.docs],
            build=lambda: balanced_documents(self.documents, self.seed),
        )
