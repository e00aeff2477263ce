"""Span recording around the public functions of each msras layer.

The wrappers are installed at the module attributes the pipeline looks the
functions up through (for example ``msras.bench.assemble`` or
``msras.schwarz.factorize``), and at every other msras module attribute bound
to the same function object, so spans and call counts follow the program's
real call graph. Nothing inside the package is edited.

With ``timed=False`` the wrappers only observe return values (used by the
untraced run to collect solutions and deterministic fields); with
``timed=True`` each call also records a span ``(name, start, end, parent)``.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

# lookup site -> span name; the prefix before the first dot is the layer.
TRACED_SITES = {
    "msras.bench.assemble": "grid.assemble",
    "msras.bench.build_decomposition": "decomp.build",
    "msras.bench.build_partition_of_unity": "decomp.pu",
    "msras.spectral.reduce_to_harmonic": "spectral.reduce",
    "msras.spectral.solve_local_eigenproblem": "spectral.eig",
    "msras.spectral.geneo_eigenproblem": "spectral.geneo",
    "msras.spectral.build_coarse_space": "spectral.coarse",
    "msras.spectral.CoarseSpace.apply": "spectral.coarse_apply",
    "msras.spectral.factorize": "linalg.factorize",
    "msras.schwarz.factorize": "linalg.factorize",
    "msras.spectral.dense_generalized_sym_eig": "linalg.pencil",
    "msras.schwarz.build_preconditioner": "schwarz.setup",
    "msras.schwarz.gmres": "schwarz.krylov",
    "msras.schwarz.apply_preconditioner": "schwarz.apply",
    "msras.schwarz.apply_one_level": "schwarz.one_level",
}

# The untraced run only needs the decomposition constants and the solutions.
OBSERVED_SITES = {
    "msras.bench.build_decomposition": "decomp.build",
    "msras.schwarz.gmres": "schwarz.krylov",
}


class MissingTarget(Exception):
    """A wrapper target named in the site table does not exist."""


def _resolve(site):
    """(owner, attribute) for a dotted site whose head is an importable module."""
    parts = site.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _fingerprint(sym):
    """Hash of a SparseSym's pattern and values: equal for matrices that are
    the same in pattern and bit-for-bit in values."""
    mat = sym.mat
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(mat.shape, dtype=np.int64).tobytes())
    for arr in (mat.indptr, mat.indices, mat.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _grid_array_mb(obj):
    """Bytes of the 2-D arrays an object holds (the per-subdomain masks)."""
    return sum(
        v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray) and v.ndim == 2
    ) / 1e6


def _observe(name, args, out):
    """Facts taken from a call's bound arguments and result (None when the
    span needs none)."""
    if name == "grid.assemble":
        return {"n_free": int(out.n_free), "nnz": int(out.A_free.mat.nnz)}
    if name == "decomp.build":
        return {
            "n_subdomains": len(out.subdomains),
            "xi": int(out.xi),
            "xi_star": int(out.xi_star),
            "mask_mb": sum(_grid_array_mb(s) for s in out.subdomains),
        }
    if name == "spectral.reduce":
        sub = args["decomp"].subdomains[args["i"]]
        return {"dense_H_bytes": 8 * sub.dofs_star.size * sub.boundary_star.size}
    if name in ("spectral.eig", "spectral.geneo"):
        return {"kernel_dim": int(out.kernel_dim)}
    if name == "spectral.coarse":
        kinds = {b.kind for b in args["bases"]}
        return {
            "coarse_dim": int(out.m),
            "lam": float(out.lam),
            "max_next": float(out.max_next_eigenvalue),
            "harmonic": kinds == {"harmonic"},
        }
    if name == "linalg.factorize":
        return {"fingerprint": _fingerprint(args["A"])}
    if name == "linalg.pencil":
        return {"n": int(np.asarray(args["K"]).shape[0])}
    if name == "schwarz.krylov":
        state, system = args["state"], args["system"]
        return {
            "scheme": state.scheme,
            "coarse": state.coarse,
            "system": system,
            "solution": out[0],
            "history": out[1],
            "maxit": int(args["maxit"]),
            "target_reduction": float(args["target_reduction"]),
        }
    return None


class Tracer:
    def __init__(self, sites, timed):
        self.sites = sites
        self.timed = timed
        self.spans = []  # dicts: name, start, end, parent (index or None), info
        self.observed = []  # (name, info) for every call with an observer
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def install(self):
        """Wrap every site; raises MissingTarget naming all absent sites."""
        missing = []
        groups = {}  # id(original) -> (original, name, [(owner, attr)])
        for site, name in self.sites.items():
            loc = _resolve(site)
            if loc is None:
                missing.append(site)
                continue
            orig = getattr(*loc)
            entry = groups.setdefault(id(orig), (orig, name, []))
            if entry[1] != name:
                raise ValueError(f"{site}: span name {name!r} differs from {entry[1]!r}")
            entry[2].append(loc)
        if missing:
            raise MissingTarget(", ".join(missing))
        modules = [m for k, m in list(sys.modules.items()) if k == "msras" or k.startswith("msras.")]
        for orig, name, locs in groups.values():
            wrapper = self._wrap(name, orig)
            aliases = {(id(o), a): (o, a) for o, a in locs}
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        aliases.setdefault((id(mod), attr), (mod, attr))
            for owner, attr in aliases.values():
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, name, orig):
        sig = inspect.signature(orig)
        spans, observed, stack, timed = self.spans, self.observed, self._stack, self.timed

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if timed:
                span = {"name": name, "parent": stack[-1] if stack else None, "info": None}
                stack.append(len(spans))
                spans.append(span)
                span["start"] = time.perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
            else:
                out = orig(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            info = _observe(name, bound.arguments, out)
            if info is not None:
                observed.append((name, info))
                if timed:
                    span["info"] = info
            return out

        return wrapper

    def call(self, name, fn, *args):
        """Run the entry point; returns (result, wall seconds). When timed, the
        call is the root span that every layer span nests in."""
        if self.timed:
            self._stack.append(len(self.spans))
            self.spans.append({"name": name, "parent": None, "info": None})
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            end = time.perf_counter()
            if self.timed:
                root = self.spans[self._stack.pop()]
                root["start"], root["end"] = start, end
        return out, end - start


def check_spans(spans, min_coverage=0.9):
    """Problems with a finished trace, as strings: spans that do not nest in
    their parent or overlap a sibling, negative self times, and top-level
    layer spans that cover less than `min_coverage` of the root span."""
    problems = []
    children = _children(spans)
    for k, span in enumerate(spans):
        kids = sorted(children[k], key=lambda c: spans[c]["start"])
        prev_end = span["start"]
        for c in kids:
            child = spans[c]
            if child["start"] < prev_end or child["end"] > span["end"]:
                problems.append(f"span {child['name']} does not nest in {span['name']}")
            prev_end = child["end"]
        if _self_time(spans, children, k) < 0.0:
            problems.append(f"span {span['name']} has negative self time")
    roots = [k for k, s in enumerate(spans) if s["parent"] is None]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    else:
        cov = coverage(spans)
        if cov < min_coverage:
            problems.append(f"layer spans cover {cov:.3f} of the traced total, below {min_coverage}")
    return problems


def _children(spans):
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(k)
    return children


def _self_time(spans, children, k):
    span = spans[k]
    return (span["end"] - span["start"]) - sum(
        spans[c]["end"] - spans[c]["start"] for c in children[k]
    )


def coverage(spans):
    """Share of the root span covered by its direct children (the layer calls)."""
    root = spans[0]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    return covered / (root["end"] - root["start"])


def layer_metrics(spans):
    """Per-layer metrics of one traced entry-point call (all but the
    correctness and overhead metrics, which the caller adds)."""
    children = _children(spans)
    time_s = {}
    calls = {}
    self_s = {}
    durations = {}
    infos = {}
    for k, span in enumerate(spans):
        name = span["name"]
        dur = span["end"] - span["start"]
        time_s[name] = time_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + _self_time(spans, children, k)
        durations.setdefault(name, []).append(dur)
        if span["info"] is not None:
            infos.setdefault(name, []).append(span["info"])

    def info(name):
        return infos.get(name, [])

    grid = info("grid.assemble")
    dec = info("decomp.build")
    coarse = info("spectral.coarse")
    harmonic = [c for c in coarse if c["harmonic"]]
    prints = [i["fingerprint"] for i in info("linalg.factorize")]
    solves = info("schwarz.krylov")
    m = {
        "grid.assemble_s": time_s.get("grid.assemble", 0.0),
        "grid.n_free": grid[0]["n_free"] if grid else 0,
        "grid.nnz": grid[0]["nnz"] if grid else 0,
        "decomp.build_s": time_s.get("decomp.build", 0.0),
        "decomp.pu_s": time_s.get("decomp.pu", 0.0),
        "decomp.n_subdomains": dec[0]["n_subdomains"] if dec else 0,
        "decomp.xi": dec[0]["xi"] if dec else 0,
        "decomp.xi_star": dec[0]["xi_star"] if dec else 0,
        "decomp.mask_mb": dec[0]["mask_mb"] if dec else 0.0,
        "spectral.reduce_s": time_s.get("spectral.reduce", 0.0),
        "spectral.reduce_calls": calls.get("spectral.reduce", 0),
        "spectral.reduce_max_ms": 1e3 * max(durations.get("spectral.reduce", [0.0])),
        "spectral.eig_s": time_s.get("spectral.eig", 0.0),
        "spectral.geneo_s": time_s.get("spectral.geneo", 0.0),
        "spectral.coarse_s": time_s.get("spectral.coarse", 0.0),
        "spectral.dense_H_mb": sum(i["dense_H_bytes"] for i in info("spectral.reduce")) / 1e6,
        "spectral.coarse_dim": sum(c["coarse_dim"] for c in coarse),
        "spectral.lambda_bound": max((c["lam"] for c in harmonic), default=0.0),
        "spectral.max_next_eigenvalue": max((c["max_next"] for c in harmonic), default=0.0),
        "spectral.kernel_dim_sum": sum(
            i["kernel_dim"] for i in info("spectral.eig") + info("spectral.geneo")
        ),
        "linalg.factorize_calls": calls.get("linalg.factorize", 0),
        "linalg.factorize_s": time_s.get("linalg.factorize", 0.0),
        "linalg.factorize_distinct_ratio": len(set(prints)) / len(prints) if prints else 1.0,
        "linalg.pencil_calls": calls.get("linalg.pencil", 0),
        "linalg.pencil_s": time_s.get("linalg.pencil", 0.0),
        "linalg.pencil_n3_sum": sum(i["n"] ** 3 for i in info("linalg.pencil")),
        "schwarz.setup_s": time_s.get("schwarz.setup", 0.0),
        "schwarz.krylov_s": time_s.get("schwarz.krylov", 0.0),
        "schwarz.krylov_self_s": self_s.get("schwarz.krylov", 0.0),
        "schwarz.apply_calls": calls.get("schwarz.apply", 0),
        "schwarz.apply_s": time_s.get("schwarz.apply", 0.0),
        "schwarz.one_level_s": time_s.get("schwarz.one_level", 0.0),
        "schwarz.coarse_apply_s": time_s.get("spectral.coarse_apply", 0.0),
        "schwarz.basis_mb": max(
            (8 * s["system"].n_free * (s["maxit"] + 1) / 1e6 for s in solves), default=0.0
        ),
        "schwarz.basis_used_ratio": (
            sum(s["history"].n_iterations + 1 for s in solves)
            / sum(s["maxit"] + 1 for s in solves)
            if solves
            else 0.0
        ),
        "bench.self_s": self_s.get(spans[0]["name"], 0.0),
        "bench.span_coverage": coverage(spans),
    }
    return m
