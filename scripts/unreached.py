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
    python3 scripts/unreached.py --allow scripts/unreached.allow

With --allow, it prints nothing for the funcs the allow-list names
(lines "PATH NAME  REASON"; # starts a comment) and exits 1 if it lists
a func the allow-list does not name, or the allow-list names a func it
no longer lists, so the list stays exactly the unreached code that
stays, each func with its reason.
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


def unreached(files):
    """Yield (path, line, name) for each func no other code names."""
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
                yield path, src.count('\n', 0, m.start()) + 1, name


def allowed(path):
    """The (path, name) pairs of the allow-list at path."""
    pairs = set()
    with open(path, encoding='utf-8') as f:
        for n, line in enumerate(f, 1):
            line = line.split('#', 1)[0].strip()
            if not line:
                continue
            fields = line.split(None, 2)
            if len(fields) < 3:
                sys.exit(f'{path}:{n}: want "PATH NAME  REASON"')
            pairs.add((fields[0], fields[1]))
    return pairs


def main():
    args = sys.argv[1:]
    if args and (len(args) != 2 or args[0] != '--allow'):
        sys.exit('usage: unreached.py [--allow FILE]')
    found = list(unreached(list(sources())))
    if not args:
        for path, line, name in found:
            print(f'{path}:{line}: {name}')
        return 0
    allow = allowed(args[1])
    bad = 0
    for path, line, name in found:
        if (path, name) not in allow:
            print(f'{path}:{line}: {name}: unreached and not in {args[1]}')
            bad += 1
    for path, name in sorted(allow - {(p, n) for p, _, n in found}):
        print(f'{args[1]}: {path} {name}: allowed but no longer unreached; drop the entry')
        bad += 1
    return 1 if bad else 0


if __name__ == '__main__':
    sys.exit(main())
