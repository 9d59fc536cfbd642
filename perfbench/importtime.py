"""Import cost of `crlhkit.cli`, grouped by top-level package.

Parses the `-X importtime` report of a fresh interpreter. That report lists
a module after the modules it pulled in, indented one level deeper, so the
tree is rebuilt from the indentation. The whole import is the cumulative
time of the crlhkit roots; below them each non-crlhkit subtree is charged,
whole, to its top-level package (so numpy modules first loaded by scipy
count as scipy), and crlhkit's own modules keep their self time.
"""

from __future__ import annotations

import statistics
import subprocess


class Node:
    __slots__ = ("name", "self_us", "cum_us", "children")

    def __init__(self, name: str, self_us: int, cum_us: int, children: list):
        self.name = name
        self.self_us = self_us
        self.cum_us = cum_us
        self.children = children


def parse(text: str) -> list[Node]:
    """Root nodes of an `-X importtime` report."""
    pending: dict[int, list[Node]] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:  # the header line
            continue
        field = parts[2]
        name = field.strip()
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = Node(name, self_us, cum_us, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def group(roots: list[Node], package: str = "crlhkit") -> dict[str, float]:
    """Milliseconds per top-level package under the `package` roots, plus
    `<package>_cli` for the whole import."""
    out: dict[str, float] = {}

    def charge(key: str, us: int) -> None:
        out[key] = out.get(key, 0.0) + us / 1000.0

    def walk(node: Node) -> None:
        top = node.name.split(".")[0]
        if top != package:
            charge(top, node.cum_us)
            return
        charge(package, node.self_us)
        for child in node.children:
            walk(child)

    mine = [r for r in roots if r.name.split(".")[0] == package]
    for r in mine:
        walk(r)
    out[f"{package}_cli"] = sum(r.cum_us for r in mine) / 1000.0
    return out


def measure(python: str, env: dict, cwd: str, runs: int) -> dict[str, float]:
    """Median over `runs` fresh interpreters of `group` for `import crlhkit.cli`."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import crlhkit.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import crlhkit.cli failed: {proc.stderr.strip()[-500:]}")
        samples.append(group(parse(proc.stderr)))
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in sorted(keys)}
