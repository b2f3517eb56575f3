"""Constituency-tree containers, the two traversals every tree job uses
(`descend` top down over spans, `walk` over nodes), bracketed
s-expression I/O, and the package's one line reader (`numbered_lines`) and
one whole-file writer (`replace_file`).

Induced trees are proper binary trees over token positions; gold trees read
from disk may be n-ary and labeled. Serialized form: "(X (X w1 w2) (X w3))",
with a bare "(w1)" for single-token sentences.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

Span = tuple[int, int]


@dataclass
class Node:
    """Tree node; a leaf has a token and no children."""

    label: str = "X"
    children: list["Node"] = field(default_factory=list)
    token: str | None = None
    span: Span = (0, 0)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def leaf(token: str, position: int) -> Node:
    return Node(label="X", token=token, span=(position, position))


def branch(children: list[Node], label: str = "X") -> Node:
    return Node(label=label, children=children,
                span=(children[0].span[0], children[-1].span[1]))


def descend(n: int, pick: Callable[[int, int], int]) -> dict[Span, int]:
    """Split map of the binary tree over tokens 1..n in which span (i, j)
    splits after token pick(i, j); spans are visited, and the map filled, in
    preorder with the left subtree first, one pick per span."""
    split_of: dict[Span, int] = {}
    stack: list[Span] = [(1, n)]
    while stack:
        i, j = stack.pop()
        if i < j:
            k = split_of[(i, j)] = pick(i, j)
            stack += [(k + 1, j), (i, k)]
    return split_of


def walk(root: Node) -> Iterator[Node]:
    """Every node in preorder, children left to right; no recursion."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def assign_spans(root: Node) -> int:
    """Fill 1-based token spans; returns the next free position."""
    nodes = list(walk(root))
    pos = 1
    for node in nodes:
        if node.is_leaf:
            node.span = (pos, pos)
            pos += 1
    for node in reversed(nodes):  # children before their parent
        if not node.is_leaf:
            node.span = (node.children[0].span[0], node.children[-1].span[1])
    return pos


def leaves(root: Node) -> list[Node]:
    return [node for node in walk(root) if node.is_leaf]


def tree_from_splits(split_of: dict[Span, int], tokens: list[str]) -> Node:
    """Binary tree over `tokens` in which span (i, j) splits after token
    split_of[(i, j)]; built narrowest span first, so a deep tree needs no
    recursion."""
    node = {(i, i): leaf(tok, i) for i, tok in enumerate(tokens, start=1)}
    for (i, j), k in sorted(split_of.items(), key=lambda item: item[0][1] - item[0][0]):
        node[(i, j)] = branch([node[(i, k)], node[(k + 1, j)]])
    return node[(1, len(tokens))]


# ---------------------------------------------------------------------------
# s-expression round trip
# ---------------------------------------------------------------------------

def format_sexpr(root: Node) -> str:
    if root.is_leaf:
        return f"({root.token})"
    # explicit stack: left-branching trees from long sentences are deep
    parts: list[str] = []
    stack: list[Node | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append(item.token or "")
        else:
            parts.append(f"({item.label}")
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
    return "".join(parts)


def _tokenize_sexpr(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text: str) -> Node:
    """Parse one bracketed tree; labels are the first atom after '('.

    A childless "(w1)" collapses to a leaf; unary nodes like "(NP he)"
    survive. Iterative, so nesting depth is unbounded.
    """
    toks = _tokenize_sexpr(text)
    if not toks:
        raise ValueError("empty tree string")
    stack: list[Node] = []
    root: Node | None = None
    i = 0
    while i < len(toks):
        tok = toks[i]
        if root is not None:
            raise ValueError("trailing content after tree")
        if tok == "(":
            if i + 1 >= len(toks):
                raise ValueError("unbalanced tree string")
            head = toks[i + 1]
            if head in ("(", ")"):
                raise ValueError("empty node")
            stack.append(Node(label=head))
            i += 2
        elif tok == ")":
            if not stack:
                raise ValueError("unbalanced tree string")
            node = stack.pop()
            if not node.children:
                node = Node(token=node.label)
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
            i += 1
        else:
            if stack:
                stack[-1].children.append(Node(token=tok))
            else:
                root = Node(token=tok)
            i += 1
    if root is None or stack:
        raise ValueError("unbalanced tree string")
    assign_spans(root)
    return root


def numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, text) of each line of a UTF-8 text file; a line
    that is not UTF-8 raises ValueError naming its path:line. Undecodable
    bytes decode to lone surrogates and are caught line by line, so the
    error names the right line however far ahead the file is buffered."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{line_no}: not UTF-8") from None
            yield line_no, line


def replace_file(path: str, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to `path` so the file is either whole or absent: they go
    to a temp file in the same directory, which is flushed, synced and then
    renamed over `path`. On failure the temp file is removed and whatever
    was at `path` before is left untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def numbered_trees(path: str) -> Iterator[tuple[int, Node]]:
    """(1-based line number, tree) of each non-blank line; a bad line raises
    ValueError naming its path:line."""
    for line_no, line in numbered_lines(path):
        try:
            if line.strip():
                yield line_no, parse_sexpr(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None


def write_tree_file(path: str, roots: list[Node]) -> None:
    """One tree per line, written whole through `replace_file`."""
    replace_file(path, ((format_sexpr(root) + "\n").encode("utf-8") for root in roots))


# ---------------------------------------------------------------------------
# baseline tree shapes
# ---------------------------------------------------------------------------

def left_branching(tokens: list[str]) -> Node:
    return tree_from_splits(descend(len(tokens), lambda i, j: j - 1), tokens)


def right_branching(tokens: list[str]) -> Node:
    return tree_from_splits(descend(len(tokens), lambda i, j: i), tokens)


def random_binary(tokens: list[str], rng: np.random.Generator) -> Node:
    """Uniformly random split at every level, drawn in preorder, left
    subtree first: a seed's trees rest on this draw order."""
    split_of = descend(len(tokens), lambda lo, hi: lo + int(rng.integers(0, hi - lo)))
    return tree_from_splits(split_of, tokens)
