"""Structured certificates: a tree of named checks, rendered as stable text.

Constructions return these instead of bare booleans so a failure always
carries its witness, and so the CLI can emit byte-identical reports for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


@dataclass
class CertNode:
    title: str
    status: str = INFO
    detail: str = ""
    children: list["CertNode"] = field(default_factory=list)

    # --- construction helpers ---

    def add(self, child: "CertNode") -> "CertNode":
        self.children.append(child)
        return child

    def section(self, title: str) -> "CertNode":
        return self.add(CertNode(title))

    def check(self, title: str, ok: bool, detail: str = "") -> bool:
        self.children.append(CertNode(title, PASS if ok else FAIL, detail))
        return ok

    def note(self, title: str, detail: str = "") -> None:
        self.children.append(CertNode(title, INFO, detail))

    # --- inspection ---

    @property
    def ok(self) -> bool:
        if self.status == FAIL:
            return False
        return all(c.ok for c in self.children)

    def first_failure(self) -> "CertNode | None":
        if self.status == FAIL:
            return self
        for c in self.children:
            hit = c.first_failure()
            if hit is not None:
                return hit
        return None

    def counts(self) -> tuple[int, int]:
        """(passed, failed) over all leaf checks."""
        if not self.children:
            if self.status == PASS:
                return 1, 0
            if self.status == FAIL:
                return 0, 1
            return 0, 0
        p = f = 0
        for c in self.children:
            cp, cf = c.counts()
            p, f = p + cp, f + cf
        return p, f

    # --- rendering ---

    def render(self) -> str:
        lines: list[str] = []
        self._render_into(lines, 0)
        return "\n".join(lines) + "\n"

    def _render_into(self, lines: list[str], depth: int) -> None:
        pad = "  " * depth
        mark = self.status if (self.status != INFO or not self.children) else (
            PASS if self.ok else FAIL
        )
        head = f"{pad}[{mark}] {self.title}"
        if self.detail:
            head += f" :: {self.detail}"
        lines.append(head)
        for c in self.children:
            c._render_into(lines, depth + 1)


def summary_line(node: CertNode) -> str:
    p, f = node.counts()
    verdict = PASS if node.ok else FAIL
    return f"{verdict}: {p} checks passed, {f} failed ({node.title})"
