"""Fixed standard-library work that gauges the host's speed between passes.

    python3 perfbench/reference.py

Starts an interpreter, parses a generated XML document through expat with
Python callbacks that build a tree of lists and dicts, then walks the tree
and serializes it again: the same kind of work as teijournal's reader and
writer, on memory of a similar shape.  It never imports teijournal, so no
change to the program moves its time; only the host does.  ``run.py``
scales set-up and pass times by the time of the runs next to them.
"""

import sys
from xml.parsers import expat

WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()
DOC = (
    "<r>"
    + "".join(
        f'<s n="{i}"><h>{WORDS[i % 12]}</h>'
        + "".join(
            f'<p k="{j}">{" ".join(WORDS[(i + j + m) % 12] for m in range(12))} '
            f"<b>{WORDS[j % 12]}</b> tail</p>"
            for j in range(6)
        )
        + "</s>"
        for i in range(300)
    )
    + "</r>"
).encode("utf-8")


def build() -> list:
    """Parse DOC into [name, attrs, children] lists."""
    root: list = [None, {}, []]
    stack = [root]

    def start(name, attrs):
        node = [name, attrs, []]
        stack[-1][2].append(node)
        stack.append(node)

    def end(name):
        stack.pop()

    def text(data):
        stack[-1][2].append(data)

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.Parse(DOC, True)
    return root


def serialize(node, out: list) -> None:
    if isinstance(node, str):
        out.append(node)
        return
    name, attrs, children = node
    if name:
        out.append("<" + name + "".join(f' {k}="{v}"' for k, v in attrs.items()) + ">")
    for child in children:
        serialize(child, out)
    if name:
        out.append("</" + name + ">")


def main() -> int:
    out: list = []
    serialize(build(), out)
    return 0 if "".join(out).encode("utf-8") == DOC else 1


if __name__ == "__main__":
    sys.exit(main())
