"""Correctness checks: every program output against references and properties.

An operation here is one checked claim about one output of one round, for
instance "the tri3 N=8 decision matrix matches the count lattice". Each round
runs the same operations, so the share that fails is the same in every run.

Two operations of exact-tree fail on the current program, each because of a
named fault; they carry that fault in `Op.fault`. Any other failure makes the
run incorrect. Statistical checks accept at a per-side level of 1e-9, so a
correct program fails one of them about once in 10^8 runs.

The self-tests tie the references to the program on cases where the program
is known to be right (no ties, no boundary hits): they guard against a wrong
reference, not a wrong program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import binom

import reference as ref
import spec

ALPHA = 1e-9          # per-side acceptance level of the statistical checks
Z = 6.5               # the same, for normal approximations of means
EXACT_TOL = 1e-9      # absolute tolerance for exact probabilities and rates

FAULT_A = ("(a) the fbar decision on a path that lands exactly on the threshold depends on "
           "the order of observations: _decide_by_thresholds compares margins >= 0.0 on "
           "confidence increments folded step by step (strategies.py)")
FAULT_B = ("(b) ChernoffSelection picks the MAP hypothesis with a plain np.argmax, not the "
           "documented lowest-index rule _argmax_lowest (strategies.py:263-269), so rounding "
           "noise breaks mathematical ties")


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""
    fault: Optional[str] = None   # the fault that makes this operation fail today


class Checker:
    def __init__(self):
        self.ops: list[Op] = []

    def check(self, name: str, fn, *args, fault: Optional[str] = None,
              error: Optional[str] = None) -> None:
        """Run fn(*args), which returns a failure message or None when the
        claim holds. `error` fails the operation without running it: the
        output it would check is missing."""
        msg = error
        if msg is None:
            try:
                msg = fn(*args)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                msg = f"malformed output: {type(exc).__name__}: {exc}"
        self.ops.append(Op(name, msg is None, msg or "", fault))


def _close(a, b, tol=EXACT_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def _rel_close(a, b, rel=1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.abs(b) + 1e-300))


def _accept_count(trials: int, p_lo: float, p_hi: float) -> tuple[int, int]:
    """Acceptance interval for a Bin(trials, p) count with p in [p_lo, p_hi]."""
    lo = int(binom.ppf(ALPHA, trials, p_lo)) if p_lo > 0 else 0
    hi = int(binom.isf(ALPHA, trials, p_hi)) if p_hi > 0 else 0
    return lo, hi


def _as_counts(probs, episodes: int) -> np.ndarray:
    counts = np.asarray(probs, dtype=float) * episodes
    rounded = np.rint(counts)
    if np.any(np.abs(counts - rounded) > 1e-6):
        raise ValueError(f"probabilities are not multiples of 1/{episodes}")
    return rounded.astype(int)


# ---------------------------------------------------------------------------
# checks shared by run reports
# ---------------------------------------------------------------------------

def _rows_valid(dm) -> Optional[str]:
    dm = np.asarray(dm, dtype=float)
    if np.any(dm < 0.0):
        return f"negative decision probability {dm.min()!r}"
    sums = dm.sum(axis=1)
    if not _close(sums, 1.0, 1e-12):
        return f"decision rows sum to {sums.tolist()}"
    return None


def _definitions(rep, prior) -> Optional[str]:
    """psi, phi and gamma follow from the decision matrix by their definitions."""
    dm = np.asarray(rep["decision_probs"], dtype=float)
    m = len(prior)
    psi = [dm[i, :].sum() - dm[i, i] for i in range(m)]
    phi = [sum(prior[h] / (1 - prior[i]) * dm[h, i] for h in range(m) if h != i) for i in range(m)]
    gamma = sum(phi[i] * (1 - prior[i]) for i in range(m))
    if not _close(rep["psi"], psi, 1e-12):
        return f"psi {rep['psi']} != 1 - diag = {psi}"
    if not _close(rep["phi"], phi, 1e-12):
        return f"phi {rep['phi']} != {phi}"
    if not _close(rep["gamma"], gamma, 1e-12):
        return f"gamma {rep['gamma']} != {gamma}"
    return None


def _dstar(md, d_star) -> Optional[str]:
    if not _close(md["d_star"], d_star, 1e-7):
        return f"D* {md['d_star']} != grid search {d_star.tolist()}"
    if not _close(md["delta"], float(np.min(d_star)) / 4.0, 1e-7):
        return f"delta {md['delta']} != min D*/4 = {float(np.min(d_star)) / 4.0}"
    return None


def _phi_bound(phi, d_star, horizon) -> Optional[str]:
    """c04: phi_N(i) <= exp(-N (D*(i) - delta)) for fbar, by change of measure."""
    bound = np.exp(-horizon * (d_star - np.min(d_star) / 4.0))
    if np.any(np.asarray(phi) > bound * (1 + 1e-9)):
        return f"phi {phi} exceeds exp(-N(D*-delta)) = {bound.tolist()}"
    return None


def _c06_bound(prior, d_star, horizon) -> np.ndarray:
    """c06: J_N(i) <= D*(i) - sum_j beta*(j) log rho~(j) / N. With rho~ the prior
    renormalized over the rivals, -sum_j beta(j) log rho~(j) is at most
    -min_j log rho~(j) for any beta; for the uniform priors used here the two
    are equal, so the bound needs no beta*."""
    prior = np.asarray(prior, dtype=float)
    out = np.empty(len(prior))
    for i in range(len(prior)):
        tilde = np.delete(prior, i) / (1.0 - prior[i])
        out[i] = d_star[i] - float(np.min(np.log(tilde))) / horizon
    return out


def _bad_output(out) -> Optional[str]:
    if isinstance(out, dict) and "error" in out:
        return out["error"]
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SweepChecks:
    """mc-chernoff-bsc2: `sweep` rows against bsc2 closed forms."""

    def __init__(self):
        self.b = ref.Bsc2()

    def selftest(self, ahtest) -> list[str]:
        return selftest_binomial(ahtest)

    def round(self, outputs: dict, c: Checker) -> None:
        text = outputs["sweep-bsc2"]
        err = _bad_output(text)
        rows = {} if err else {r["horizon"]: r for r in json.loads(text)["rows"]}
        for n in spec.SWEEP_HORIZONS:
            row = rows.get(n)
            fail = err or (None if row else f"no row for N={n}")
            for what, fn in (("closed forms", self._closed_forms),
                             ("gamma vs binomial tail", self._gamma),
                             ("lower bound", self._lower),
                             ("feasibility", self._feasible),
                             ("exponent", self._exponent)):
                c.check(f"sweep-bsc2 N={n} {what}", fn, row, n, error=fail)

    def _closed_forms(self, row, n):
        b = self.b
        eps = 1.0 / (2 * n)
        want = {
            "d_star": [b.d_star, b.d_star], "d_star_min": b.d_star, "delta": b.delta,
            "epsilon": eps, "upper_bound": b.upper_bound(n),
            "p2_rates": [b.p2_rate(n, eps)] * 2,
        }
        for key, value in want.items():
            if not _rel_close(row[key], value, 1e-9):
                return f"{key} = {row[key]} != {value}"
        return None

    def _count(self, row):
        """Misclassified episodes over both lanes: gamma = (c1 + c2) / (2E)."""
        return int(_as_counts([row["gamma"]], 2 * spec.SWEEP_EPISODES)[0])

    def _gamma(self, row, n):
        e = spec.SWEEP_EPISODES
        count = self._count(row)
        lo_p, hi_p = self.b.misclass_bracket(n)
        lo, hi = _accept_count(2 * e, lo_p, hi_p)
        if not lo <= count <= hi:
            return (f"{count} misclassifications in {2 * e} episodes; tail bracket "
                    f"[{lo_p:.3e}, {hi_p:.3e}] accepts [{lo}, {hi}]")
        # gamma_se^2 = sum_h (1/4) m_h (1 - m_h) / (E - 1) for lane rates m_h
        # summing to s = count / E; its range over the split of the count.
        # The program forms each m_h as a difference of rates, which leaves a
        # rounding residue of a few ulps where m_h is 0; `residue` allows it.
        s = count / e
        se_lo = math.sqrt(0.25 * s * (1 - s) / (e - 1))
        se_hi = math.sqrt(0.25 * 2 * (s / 2) * (1 - s / 2) / (e - 1))
        residue = math.sqrt(0.25 * 2 * 8 * 2.0**-52 / (e - 1))
        se = row["gamma_stderr"]
        if not se_lo * (1 - 1e-9) - residue <= se <= se_hi * (1 + 1e-9) + residue:
            return f"gamma_stderr {se} outside [{se_lo}, {se_hi}] for {count} events"
        return None

    def _lower(self, row, n):
        """lower_bound uses the measured J_N(i); J = D* exactly, and each lane's
        estimate lies within Z standard errors of it."""
        b = self.b
        eps = 1.0 / (2 * n)
        exact = b.lower_bound(n, eps)
        # |J_hat - J| <= Z sd / (N sqrt(E)) moves log(lower_bound) by at most N times that
        slack = Z * b.increment_sd(n) / math.sqrt(spec.SWEEP_EPISODES)
        ratio = row["lower_bound"] / exact
        if not math.exp(-slack) <= ratio <= math.exp(slack):
            return f"lower_bound {row['lower_bound']} vs {exact} with J = D*: ratio {ratio}"
        return None

    def _feasible(self, row, n):
        """feasible = (psi_N(i) <= eps_N for both i); decided only where every
        psi estimate the acceptance interval allows falls on one side."""
        e = spec.SWEEP_EPISODES
        eps = 1.0 / (2 * n)
        lo_p, hi_p = self.b.psi_bracket(n)
        lo, hi = _accept_count(e, lo_p, hi_p)
        allowed = {True, False}
        if hi / e <= eps:
            allowed = {True}
        elif lo / e > eps:
            allowed = {False}
        if row["feasible"] not in allowed:
            return (f"feasible = {row['feasible']} but psi bracket [{lo_p:.4g}, {hi_p:.4g}] "
                    f"vs eps {eps:.4g} allows {sorted(allowed)}")
        return None

    def _exponent(self, row, n):
        count = self._count(row)
        reliable = count >= 10
        if row["reliable"] != reliable:
            return f"reliable = {row['reliable']} with {count} events"
        want = -math.log(row["gamma"]) / n if reliable and row["gamma"] > 0 else None
        got = row["achieved_exponent"]
        if (want is None) != (got is None) or (want is not None and not _rel_close(got, want)):
            return f"achieved_exponent {got} != {want}"
        return None


class SimulateChecks:
    """mc-ejs-tri3: `simulate` report against the tri3 ejs count lattice."""

    def __init__(self):
        m = spec.MODELS["tri3"]
        self.channel = np.array(m["channel"], dtype=float)
        self.prior = np.array(m["prior"], dtype=float)
        self.d_star, _ = ref.dstar_grid(self.channel)
        self.lat = ref.lattice(self.channel, self.prior, "ejs", spec.EJS_HORIZON, self.d_star)

    def selftest(self, ahtest) -> list[str]:
        return selftest_lattice(ahtest, self.lat, "tri3 ejs")

    def round(self, outputs: dict, c: Checker) -> None:
        text = outputs["simulate-tri3"]
        err = _bad_output(text)
        doc = None if err else json.loads(text)
        checks = [("D*", self._dstar), ("decision rows", self._rows),
                  ("definitions", self._definitions)]
        checks += [(f"H{h + 1} decisions vs lattice", lambda d, h=h: self._decisions(d, h))
                   for h in range(3)]
        checks += [("J_N vs lattice", self._jng), ("phi bound (c04)", self._phi_bound),
                   ("J_N bound (c06)", self._jng_bound),
                   ("misclassification count", self._misclass)]
        for what, fn in checks:
            c.check(f"simulate-tri3 {what}", fn, doc, error=err)

    def _dstar(self, doc):
        return _dstar(doc["metadata"], self.d_star)

    def _rows(self, doc):
        rep = doc["report"]
        if rep["mode"] != "mc" or rep["episodes"] != spec.EJS_EPISODES:
            return f"mode {rep['mode']}, episodes {rep['episodes']}"
        _as_counts(rep["decision_probs"], spec.EJS_EPISODES)
        return _rows_valid(rep["decision_probs"])

    def _definitions(self, doc):
        return _definitions(doc["report"], self.prior)

    def _decisions(self, doc, h):
        e = spec.EJS_EPISODES
        counts = _as_counts(doc["report"]["decision_probs"][h], e)
        for d, count in enumerate(counts):
            p = float(self.lat.decision_probs[h, d])
            lo, hi = _accept_count(e, p, p)
            if not lo <= count <= hi:
                return f"column {d}: {count} of {e} episodes, exact p = {p:.5g} accepts [{lo}, {hi}]"
        return None

    def _se(self):
        return np.sqrt(self.lat.inc_var / spec.EJS_EPISODES) / spec.EJS_HORIZON

    def _jng(self, doc):
        got = np.asarray(doc["report"]["jng"], dtype=float)
        if np.any(np.abs(got - self.lat.jng) > Z * self._se()):
            return f"jng {got.tolist()} vs exact {self.lat.jng.tolist()} (se {self._se().tolist()})"
        return None

    def _phi_bound(self, doc):
        """c04 on counts: the false declarations of i over the other lanes are
        at most Bin(2E, exp(-N (D*(i) - delta))) in the upper tail."""
        e = spec.EJS_EPISODES
        counts = _as_counts(doc["report"]["decision_probs"], e)
        bound = np.exp(-spec.EJS_HORIZON * (self.d_star - np.min(self.d_star) / 4.0))
        for i in range(3):
            false = int(counts[:, i].sum() - counts[i, i])
            _, hi = _accept_count(2 * e, bound[i], bound[i])
            if false > hi:
                return f"{false} false declarations of H{i + 1}; bound {bound[i]:.4g} accepts <= {hi}"
        return None

    def _jng_bound(self, doc):
        bound = _c06_bound(self.prior, self.d_star, spec.EJS_HORIZON)
        got = np.asarray(doc["report"]["jng"], dtype=float)
        if np.any(got > bound + Z * self._se()):
            return f"jng {got.tolist()} above the c06 bound {bound.tolist()}"
        return None

    def _misclass(self, doc):
        e = spec.EJS_EPISODES
        counts = _as_counts(doc["report"]["decision_probs"], e)
        count = int(counts[:, :3].sum() - np.trace(counts[:, :3]))
        if doc["report"]["misclassification_count"] != count:
            return f"misclassification_count {doc['report']['misclassification_count']} != {count}"
        dm = self.lat.decision_probs
        lo = hi = 0
        for h in range(3):
            p = float(dm[h, :3].sum() - dm[h, h])
            a, b = _accept_count(e, p, p)
            lo, hi = lo + a, hi + b
        if not lo <= count <= hi:
            return f"{count} misclassifications; exact rates accept [{lo}, {hi}]"
        return None


class ExactChecks:
    """exact-tree: enumerate reports and pair expectations."""

    def __init__(self):
        m = spec.MODELS["tri3"]
        self.channel = np.array(m["channel"], dtype=float)
        self.prior = np.array(m["prior"], dtype=float)
        self.d_star, self.alpha = ref.dstar_grid(self.channel)
        self.lat = ref.lattice(self.channel, self.prior, "chernoff", spec.EXACT_TRI3_N,
                               self.d_star, self.alpha)
        self.bracket = ref.chernoff_bracket(self.channel, self.prior, spec.EXACT_TRI3_N,
                                            self.d_star, self.alpha)
        self.b = ref.Bsc2()

    def selftest(self, ahtest) -> list[str]:
        return selftest_lattice(ahtest, self.lat, "tri3 chernoff") + selftest_binomial(ahtest)

    def round(self, outputs: dict, c: Checker) -> None:
        n_t, n_b = spec.EXACT_TRI3_N, spec.EXACT_BSC2_N
        b_dstar = np.array([self.b.d_star] * 2)
        plans = [
            ("enumerate-tri3", [
                ("decision rows", lambda d: _rows_valid(d["report"]["decision_probs"]), None),
                ("D*", lambda d: _dstar(d["metadata"], self.d_star), None),
                ("definitions", lambda d: _definitions(d["report"], self.prior), None),
                ("phi bound (c04)", lambda d: _phi_bound(d["report"]["phi"], self.d_star, n_t), None),
                ("J_N bound (c06)", lambda d: self._jng_le(d, self.prior, self.d_star, n_t), None),
                ("within the MAP tie-rule bracket", self._tri3_bracket, None),
                ("matches count lattice", self._tri3_lattice, FAULT_B),
            ]),
            ("enumerate-bsc2", [
                ("decision rows", lambda d: _rows_valid(d["report"]["decision_probs"]), None),
                ("D*", lambda d: _dstar(d["metadata"], b_dstar), None),
                ("definitions", lambda d: _definitions(d["report"], [0.5, 0.5]), None),
                ("phi bound (c04)", lambda d: _phi_bound(d["report"]["phi"], b_dstar, n_b), None),
                ("J_N = D* (c06)", self._bsc2_jng, None),
                ("within binomial bracket", self._bsc2_bracket, None),
                ("psi equals a binomial tail", self._bsc2_tail, FAULT_A),
            ]),
            ("pairs-tri3", [
                ("E[sum lambda] = E[sum KL] (c07)", self._c07, None),
                ("E[sum KL] within N x per-step KL range", self._kl_range, None),
            ]),
        ]
        for op, checks in plans:
            out = outputs[op]
            err = _bad_output(out)
            doc = out if err or op == "pairs-tri3" else json.loads(out)
            for what, fn, fault in checks:
                c.check(f"{op} {what}", fn, doc, fault=fault, error=err)

    @staticmethod
    def _jng_le(doc, prior, d_star, horizon):
        bound = _c06_bound(prior, d_star, horizon)
        got = np.asarray(doc["report"]["jng"], dtype=float)
        if np.any(got > bound + EXACT_TOL):
            return f"jng {got.tolist()} above the c06 bound {bound.tolist()}"
        return None

    def _tri3_bracket(self, doc):
        """Whatever rule breaks MAP ties, the result lies in the bracket."""
        (dm_lo, j_lo), (dm_hi, j_hi) = self.bracket
        dm = np.asarray(doc["report"]["decision_probs"], dtype=float)
        jng = np.asarray(doc["report"]["jng"], dtype=float)
        if np.any(dm < dm_lo - EXACT_TOL) or np.any(dm > dm_hi + EXACT_TOL):
            return f"decision matrix {dm.tolist()} outside [{dm_lo.tolist()}, {dm_hi.tolist()}]"
        if np.any(jng < j_lo - EXACT_TOL) or np.any(jng > j_hi + EXACT_TOL):
            return f"jng {jng.tolist()} outside [{j_lo.tolist()}, {j_hi.tolist()}]"
        return None

    def _tri3_lattice(self, doc):
        dm = np.asarray(doc["report"]["decision_probs"], dtype=float)
        jng = np.asarray(doc["report"]["jng"], dtype=float)
        d_dm = float(np.max(np.abs(dm - self.lat.decision_probs)))
        d_j = float(np.max(np.abs(jng - self.lat.jng)))
        if d_dm > EXACT_TOL or d_j > EXACT_TOL:
            return f"decision matrix differs by {d_dm:.3g}, J_N by {d_j:.3g}"
        return None

    def _bsc2_jng(self, doc):
        if not _rel_close(doc["report"]["jng"], [self.b.d_star] * 2, 1e-12):
            return f"jng {doc['report']['jng']} != (p - q) ln(p/q) = {self.b.d_star}"
        return None

    def _bsc2_bracket(self, doc):
        """Under any tie rule each decision probability lies between the two
        one-sided binomial forms."""
        lo, hi = self.b.decision_rows(spec.EXACT_BSC2_N)
        dm = np.asarray(doc["report"]["decision_probs"], dtype=float)
        if np.any(dm < lo - 1e-12) or np.any(dm > hi + 1e-12):
            return f"decision matrix {dm.tolist()} outside [{lo.tolist()}, {hi.tolist()}]"
        return None

    def _bsc2_tail(self, doc):
        """With one documented boundary rule psi is one binomial tail."""
        lo, hi = self.b.psi_bracket(spec.EXACT_BSC2_N)
        psi = doc["report"]["psi"]
        for side in (lo, hi):
            if _close(psi, [side, side], 1e-12):
                return None
        return f"psi {psi} lies strictly between the tails {lo:.4g} and {hi:.4g}"

    def _c07(self, doc):
        lam = np.asarray(doc["lam"], dtype=float)
        kl = np.asarray(doc["kl"], dtype=float)
        if not _rel_close(lam, kl, 1e-9):
            return f"max |E[sum lambda] - E[sum KL]| = {float(np.max(np.abs(lam - kl))):.3g}"
        if not (np.all(np.diag(lam) == 0.0) and np.all(np.diag(kl) == 0.0)):
            return "diagonal is not zero"
        return None

    def _kl_range(self, doc):
        kl = np.asarray(doc["kl"], dtype=float)
        table = ref.kl_table(self.channel)
        n = spec.PAIRS_TRI3_N
        off = ~np.eye(3, dtype=bool)
        lo, hi = n * table.min(axis=2), n * table.max(axis=2)
        if np.any(kl[off] < lo[off] - EXACT_TOL) or np.any(kl[off] > hi[off] + EXACT_TOL):
            return f"E[sum KL] {kl.tolist()} outside [{lo.tolist()}, {hi.tolist()}]"
        return None


CHECKS = {
    "mc-chernoff-bsc2": SweepChecks,
    "mc-ejs-tri3": SimulateChecks,
    "exact-tree": ExactChecks,
}


# ---------------------------------------------------------------------------
# self-tests of the references
# ---------------------------------------------------------------------------

def _fbar_config(ahtest, name, selection, horizon):
    model = ahtest.Model(**spec.MODELS[name])
    saddles = ahtest.saddle_points(model)
    sel = ahtest.EJSGreedySelection() if selection == "ejs" else ahtest.ChernoffSelection(saddles)
    inf = ahtest.FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0)
    return ahtest.RunConfig(model=model, selection=sel, inference=inf, horizon=horizon)


def selftest_lattice(ahtest, lat: ref.LatticeResult, name: str) -> list[str]:
    """The lattice matches tree enumeration for tri3 ejs at N <= 6, where the
    program applies the lowest-index rule, and `lat` has no terminal state
    on an fbar threshold, where its decision would depend on rounding."""
    m = spec.MODELS["tri3"]
    channel = np.array(m["channel"], dtype=float)
    prior = np.array(m["prior"], dtype=float)
    d_star, _ = ref.dstar_grid(channel)
    problems = []
    for n in range(1, 7):
        small = ref.lattice(channel, prior, "ejs", n, d_star)
        rep = ahtest.enumerate_exact(_fbar_config(ahtest, "tri3", "ejs", n))
        if not (_close(rep.decision_probs, small.decision_probs, 1e-12)
                and _close(rep.jng, small.jng, 1e-12)):
            problems.append(f"lattice != enumerate_exact for tri3 ejs N={n}")
    if lat.near_boundary:
        problems.append(f"{name}: {lat.near_boundary} lattice states on an fbar threshold")
    return problems


def selftest_binomial(ahtest) -> list[str]:
    """Off the boundary (N = 13, 14) the two binomial forms coincide and
    match bsc2 tree enumeration."""
    b = ref.Bsc2()
    problems = []
    for n in (13, 14):
        lo, hi = b.decision_rows(n)
        rep = ahtest.enumerate_exact(_fbar_config(ahtest, "bsc2", "chernoff", n))
        if b.on_boundary(n) or not (_close(lo, hi, 1e-15)
                                    and _close(rep.decision_probs, lo, 1e-12)):
            problems.append(f"binomial forms != enumerate_exact for bsc2 N={n}")
    return problems
