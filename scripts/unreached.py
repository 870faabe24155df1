#!/usr/bin/env python3
"""List functions and methods that no other non-test code names.

Prints, one per line as "path:line: name", each func or method defined
in non-test Go code under internal/ or in the root package whose name
appears nowhere else in the repository's non-test Go code (cmd/,
examples/, srjtest/, the nested bench/ module and the rest). Comments
and string literals are ignored, so a name that only a doc comment
mentions counts as unreached. Methods that the standard library calls
through an interface (sort.Interface's Less and Swap, errors' Unwrap,
and the like) are never listed. The match is by name, not by type, so
a method whose name another type also uses is never listed either; an
unlisted function may still be dead. Each listed name is a candidate
for deletion unless it is a test reference, test-only support or
public API.

Usage, from anywhere in the repository:
    python3 scripts/unreached.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Comments and string/rune literals, matched left to right so that a
# "//" inside a string is not taken for a comment.
LEXEMES = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|`[^`]*`|\'(?:\\.|[^\'\\\n])+\'',
    re.S,
)
FUNC = re.compile(r'^func\s+(\([^)]*\)\s*)?([A-Za-z_]\w*)', re.M)
WORD = re.compile(r'[A-Za-z_]\w*')
# Method names the standard library calls through its interfaces.
IMPLICIT = {
    'Error', 'String', 'GoString', 'Format', 'Unwrap', 'Is', 'As',
    'Len', 'Less', 'Swap', 'Push', 'Pop', 'ServeHTTP', 'Read', 'Write',
    'Close', 'MarshalJSON', 'UnmarshalJSON', 'MarshalText',
    'UnmarshalText', 'MarshalBinary', 'UnmarshalBinary',
}


def strip(src):
    """Blank comments and literals, keeping line numbers."""
    return LEXEMES.sub(lambda m: re.sub(r'[^\n]', ' ', m.group(0)), src)


def sources():
    """Yield (path, stripped source) for every non-test Go file."""
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith('.') and d != 'testdata')
        for name in sorted(filenames):
            if name.endswith('.go') and not name.endswith('_test.go'):
                path = os.path.join(dirpath, name)
                with open(path, encoding='utf-8') as f:
                    yield os.path.relpath(path, ROOT), strip(f.read())


def scanned(path):
    """Whether path is under internal/ or in the root package."""
    return path.startswith('internal' + os.sep) or os.sep not in path


def main():
    files = list(sources())
    uses = {}
    for _, src in files:
        for word in WORD.findall(src):
            uses[word] = uses.get(word, 0) + 1
    # A name counts once per definition; any further occurrence is a use.
    defs = {}
    for path, src in files:
        for m in FUNC.finditer(src):
            defs[m.group(2)] = defs.get(m.group(2), 0) + 1
    for path, src in files:
        if not scanned(path):
            continue
        for m in FUNC.finditer(src):
            name = m.group(2)
            if name in ('main', 'init', '_') or m.group(1) and name in IMPLICIT:
                continue
            if uses[name] <= defs[name]:
                line = src.count('\n', 0, m.start()) + 1
                print(f'{path}:{line}: {name}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
