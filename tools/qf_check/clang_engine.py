"""libclang (clang.cindex) model builder for qf_check.

Used when a python clang binding and a matching libclang shared library
are importable (the CI job installs the distro's pinned python3-clang);
the container's local fallback is the token engine in cpp_model.py. Both
produce the same Model, so checks.py and the fixture goldens are shared.

The AST gives this engine what tokens cannot have: real function
boundaries (no heuristic header matching), lambda bodies attached to the
right function, and member accesses resolved through the object's actual
class. Line-level facts (memory-order comments, RAII temporaries, static
declarations, line-pattern rules, suppressions) intentionally reuse the
token collector so the two engines agree on those checks byte for byte.
"""

from __future__ import annotations

import os
import pathlib
import re

import cpp_model
from cpp_model import (AccessEvent, AcquireEvent, CallEvent, Function,
                       GuardedMember, Model, ScopeEnd, canonical)

_LOCK_TYPE_RE = re.compile(
    r"\b(LockGuard|UniqueLock|lock_guard|unique_lock|scoped_lock)\b")

_ARGS = ["-xc++", "-std=c++20", "-fsyntax-only",
         "-Wno-everything"]          # diagnostics are not this tool's job


def available() -> bool:
    try:
        import clang.cindex
        # QF_CHECK_LIBCLANG pins the shared library when the distro's
        # python binding does not find it on its own (CI sets it).
        lib = os.environ.get("QF_CHECK_LIBCLANG")
        if lib:
            try:
                clang.cindex.Config.set_library_file(lib)
            except Exception:
                pass  # already configured earlier in this process
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def _qualname(cursor):
    parts = []
    c = cursor
    while c is not None and c.spelling:
        import clang.cindex as ci
        if c.kind in (ci.CursorKind.TRANSLATION_UNIT,):
            break
        if c.kind in (ci.CursorKind.NAMESPACE, ci.CursorKind.CLASS_DECL,
                      ci.CursorKind.STRUCT_DECL, ci.CursorKind.CXX_METHOD,
                      ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CONSTRUCTOR,
                      ci.CursorKind.DESTRUCTOR, ci.CursorKind.CLASS_TEMPLATE,
                      ci.CursorKind.FUNCTION_TEMPLATE):
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _annotation_args(cursor, macro):
    """Arguments of a QF_* annotation macro spelled in the cursor's
    source extent (macros survive in the token stream even when the
    attribute itself is exposed oddly across libclang versions)."""
    toks = [t.spelling for t in cursor.get_tokens()]
    out = []
    i = 0
    while i < len(toks):
        if toks[i] == macro and i + 1 < len(toks) and toks[i + 1] == "(":
            level = 0
            j = i + 1
            inner = []
            while j < len(toks):
                if toks[j] == "(":
                    level += 1
                elif toks[j] == ")":
                    level -= 1
                    if level == 0:
                        break
                if j > i + 1:
                    inner.append(toks[j])
                j += 1
            out.append(" ".join(inner))
            i = j
        i += 1
    return out


class _FunctionWalker:
    def __init__(self, fn: Function, model: Model):
        self.fn = fn
        self.model = model

    def walk(self, cursor, depth):
        import clang.cindex as ci
        for child in cursor.get_children():
            kind = child.kind
            line = child.location.line or 0
            if kind == ci.CursorKind.COMPOUND_STMT:
                self.walk(child, depth + 1)
                self.fn.events.append(
                    ScopeEnd(line=child.extent.end.line, depth=depth + 1))
                continue
            if kind == ci.CursorKind.VAR_DECL:
                tspell = child.type.spelling
                m = _LOCK_TYPE_RE.search(tspell)
                if m:
                    arg_toks = [t.spelling for t in child.get_tokens()]
                    inner = self._ctor_args(arg_toks)
                    if inner and not any(x in inner for x in
                                         ("adopt_lock", "defer_lock")):
                        self.fn.events.append(AcquireEvent(
                            line=line, var=child.spelling,
                            mutex=canonical(inner.split(",")[0]),
                            depth=depth,
                            kind=("unique" if "nique" in m.group(1)
                                  else "guard")))
                        continue
            if kind == ci.CursorKind.CALL_EXPR and child.spelling:
                args = []
                for a in child.get_arguments():
                    args.append(" ".join(
                        t.spelling for t in a.get_tokens()))
                self.fn.events.append(CallEvent(
                    line=line, callee=child.spelling.split("::")[-1],
                    args=args, depth=depth))
            if kind in (ci.CursorKind.MEMBER_REF_EXPR,
                        ci.CursorKind.DECL_REF_EXPR) and child.spelling:
                self.fn.events.append(AccessEvent(
                    line=line, member=child.spelling, depth=depth))
            self.walk(child, depth)

    @staticmethod
    def _ctor_args(toks):
        """`LockGuard lock(expr)` / `{expr}` -> 'expr' from decl tokens."""
        for opener, closer in (("(", ")"), ("{", "}")):
            if opener in toks:
                i = toks.index(opener)
                level = 0
                inner = []
                for j in range(i, len(toks)):
                    if toks[j] == opener:
                        level += 1
                    elif toks[j] == closer:
                        level -= 1
                        if level == 0:
                            return " ".join(inner)
                    if j > i:
                        inner.append(toks[j])
        return ""


def build_model(paths, raii_types=cpp_model._DEFAULT_RAII_TYPES) -> Model:
    import clang.cindex as ci

    # Line-level facts come from the shared token collector.
    token_eng = cpp_model.TokenEngine(raii_types=raii_types)
    for p in paths:
        token_eng.add_file(p)
    token_model = token_eng.finish()

    model = Model()
    model.files = list(token_model.files)
    model.mo_sites = token_model.mo_sites
    model.raii_temps = token_model.raii_temps
    model.statics = token_model.statics
    model.line_hits = token_model.line_hits
    model.suppressions = token_model.suppressions

    index = ci.Index.create()
    include_dirs = set()
    for p in paths:
        p = pathlib.Path(p).resolve()
        for parent in p.parents:
            if parent.name == "src" or (parent / "util").is_dir():
                include_dirs.add(str(parent))
    args = _ARGS + [f"-I{d}" for d in sorted(include_dirs)]

    want = {str(pathlib.Path(p).resolve()) for p in paths}
    for p in paths:
        tu = index.parse(str(p), args=args)
        _visit_tu(ci, tu.cursor, want, model)

    # Dedup functions parsed through multiple TUs (headers).
    seen = set()
    uniq = []
    for fn in model.functions:
        key = (fn.file, fn.line, fn.qualname)
        if key not in seen:
            seen.add(key)
            uniq.append(fn)
    model.functions = uniq
    model.guarded = list({(g.cls, g.name, g.guard, g.file, g.line): g
                          for g in model.guarded}.values())
    # A QF_REQUIRES on the header prototype covers the .cpp definition:
    # propagate by qualified name (declaration-only stubs carry no events,
    # so they are inert in every check).
    req_by_qual = {}
    for fn in model.functions:
        if fn.requires:
            req_by_qual.setdefault(fn.qualname, set()).update(fn.requires)
    for fn in model.functions:
        fn.requires |= req_by_qual.get(fn.qualname, set())
    return model


def _visit_tu(ci, cursor, want, model):
    for child in cursor.get_children():
        loc = child.location
        if loc.file is None:
            continue
        fpath = str(pathlib.Path(loc.file.name).resolve())
        if fpath not in want:
            continue
        kind = child.kind
        if kind in (ci.CursorKind.NAMESPACE, ci.CursorKind.CLASS_DECL,
                    ci.CursorKind.STRUCT_DECL, ci.CursorKind.CLASS_TEMPLATE,
                    ci.CursorKind.UNEXPOSED_DECL,
                    ci.CursorKind.LINKAGE_SPEC):
            _visit_tu(ci, child, want, model)
            if kind in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                        ci.CursorKind.CLASS_TEMPLATE):
                _collect_class(ci, child, loc.file.name, model)
            continue
        if kind in (ci.CursorKind.CXX_METHOD, ci.CursorKind.FUNCTION_DECL,
                    ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                    ci.CursorKind.FUNCTION_TEMPLATE):
            reqs = {canonical(a) for a in
                    _annotation_args(child, "QF_REQUIRES")}
            if not child.is_definition():
                if reqs:
                    # remember for the out-of-line definition
                    model.functions.append(Function(
                        qualname=_qualname(child), cls=None,
                        name=child.spelling, file=loc.file.name,
                        line=loc.line, requires=reqs))
                continue
            parent = child.semantic_parent
            cls = (parent.spelling
                   if parent is not None and parent.kind in (
                       ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                       ci.CursorKind.CLASS_TEMPLATE)
                   else None)
            fn = Function(
                qualname=_qualname(child), cls=cls, name=child.spelling,
                file=loc.file.name, line=loc.line, requires=reqs,
                is_ctor_dtor=child.kind in (ci.CursorKind.CONSTRUCTOR,
                                            ci.CursorKind.DESTRUCTOR))
            _FunctionWalker(fn, model).walk(child, 1)
            model.functions.append(fn)


def _collect_class(ci, cursor, fname, model):
    cls = cursor.spelling
    for child in cursor.get_children():
        if child.kind == ci.CursorKind.FIELD_DECL:
            model.members.add((cls, child.spelling))
            for guard in _annotation_args(child, "QF_GUARDED_BY"):
                model.guarded.append(GuardedMember(
                    cls=cls, name=child.spelling, guard=canonical(guard),
                    file=fname, line=child.location.line))
        elif child.kind in (ci.CursorKind.CLASS_DECL,
                            ci.CursorKind.STRUCT_DECL):
            _collect_class(ci, child, fname, model)
