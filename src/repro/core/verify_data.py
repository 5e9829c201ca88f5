"""Execution-aware data-plane integrity verification.

:func:`verify_plan_coverage` (in :mod:`repro.core.validate`) proves a
plan *would* deliver everything if every op succeeded.  This module
closes the remaining gap for faulted runs: given the plan **and** the
timing outcome of actually executing it (which ops delivered, which were
abandoned after retries, which were blocked behind wedged host queues),
it symbolically tracks which source slices each destination device
*actually received* and fails loudly on any gap or overlap.

It runs the plan checker's delivery walk
(:func:`repro.core.plan.plan_deliveries`) minus the ops the run lost:
the same sender-authority test, scatter parts, all-gather feeding and
per-element tile count.  A malformed op, an unauthorized sender or an
unfed all-gather is *discredited* (credited with nothing), never raised
on.  As every credited sender holds what it sends, two deliveries of one
element are value-identical, so "overlap" here means *duplicated
delivery*, which the strict mode (used by the recovery runtime to
certify restored state) treats as an error just like a gap: a correct
recovery reshard delivers every element of every destination tile
exactly once.

Broadcast re-roots (``CommPlan.fallbacks``) need no special casing: the
re-rooted op names its actual sender, which the authority check covers;
retries are invisible at this level because the network either delivered
the full payload (possibly after retries) or abandoned the op, and
abandonment shows up in ``TimingResult.failed_ops``.

**Gray corruption** (:class:`repro.sim.faults.CorruptionWindow`) is the
one fault the timing layer cannot surface on its own: the flow completed
on time, the bytes are just wrong.  The verifier closes that hole with a
hard never-silent rule.  A corrupted op whose checksum caught it
(``TimingResult.corrupted_ops``) had its payload *discarded* by the
receiver, so it is credited with **no** delivery — if no duplicate
replica delivery covers the same tile, the gap fails certification
exactly like an abandoned transfer.  A corrupted op *without* a
checksum (``unverified_corruption``, possible only for hand-built plans
that skipped the compiler's emit stamping) means bad bytes were applied
and nothing in-band could know: the report is never certified, and
under ``raise_on_error`` it raises before anything else — "maybe-bad
data certified as good" is the one outcome this module exists to
prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import CommPlan, plan_deliveries, tile_cover

__all__ = ["IntegrityError", "IntegrityReport", "verify_delivery"]


class IntegrityError(RuntimeError):
    """The executed plan did not deliver exactly the required data."""


@dataclass
class IntegrityReport:
    """Outcome of verifying one executed (or hypothetical) plan.

    ``gaps`` / ``duplicates`` map destination device id to the number of
    elements of its tile that arrived zero / more-than-one times.  A
    report is *certified* when every destination tile was covered
    exactly once — no missing and no duplicated slices.
    """

    n_ops: int
    n_ops_failed: int
    n_devices: int
    gaps: dict[int, int] = field(default_factory=dict)
    duplicates: dict[int, int] = field(default_factory=dict)
    #: ops the verifier refused to credit (e.g. all-gather missing parts)
    discredited_ops: tuple[int, ...] = ()
    #: plan-time re-roots that were honoured (from ``CommPlan.fallbacks``)
    n_fallbacks: int = 0
    #: flows the network delivered only after retrying (when known)
    n_retried_flows: int = 0
    #: ops whose delivery was corrupted and *detected* by checksum
    #: (payload discarded, no delivery credit)
    corrupted_ops: tuple[int, ...] = ()
    #: corrupted ops with no checksum: undetectable in-band, never
    #: certifiable
    unverifiable_ops: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return (
            not self.gaps
            and not self.duplicates
            and not self.unverifiable_ops
        )

    def __repr__(self) -> str:
        state = "certified" if self.certified else (
            f"gaps={self.gaps} duplicates={self.duplicates}"
        )
        return (
            f"IntegrityReport({state}, ops={self.n_ops}, "
            f"failed={self.n_ops_failed}, devices={self.n_devices})"
        )


def verify_delivery(
    plan: CommPlan,
    timing=None,
    strict: bool = True,
    raise_on_error: bool = True,
) -> IntegrityReport:
    """Certify that the executed plan delivered every tile exactly once.

    ``timing`` is the :class:`~repro.core.executor.TimingResult` of
    running the plan; ops listed in its ``failed_ops`` (abandoned
    transfers, or tasks blocked behind wedged host queues) are credited
    with **no** delivery — a partially received broadcast is unusable.
    With ``timing=None`` the plan is assumed fully executed: the static
    check, on the same delivery walk as the plan checker's P002/P005,
    plus duplicate detection.

    ``strict`` also fails duplicated deliveries (exact-once cover, the
    bar the recovery runtime certifies restored state against); with
    ``strict=False`` duplicates are still *reported* but do not raise —
    appropriate for replica-delivery strategies whose receivers crop.
    """
    task = plan.task
    corrupted: tuple[int, ...] = (
        tuple(timing.corrupted_ops) if timing is not None else ()
    )
    unverifiable: tuple[int, ...] = (
        tuple(timing.unverified_corruption) if timing is not None else ()
    )
    # Detected corruption = discarded payload = no delivery credit.
    failed: frozenset[int] = frozenset(
        (timing.failed_ops if timing is not None else ())
    ) | frozenset(corrupted)
    walk = list(plan_deliveries(plan, skip=failed))
    cover = list(tile_cover(task, walk))
    gaps = {dev: n for dev, _tile, n, _dup in cover if n}
    duplicates = {dev: n for dev, _tile, _gap, n in cover if n}

    report = IntegrityReport(
        n_ops=len(plan.ops),
        n_ops_failed=len(failed),
        n_devices=len(task.dst_mesh.devices),
        gaps=gaps,
        duplicates=duplicates,
        discredited_ops=tuple(d.op.op_id for d in walk if d.defect),
        n_fallbacks=len(plan.fallbacks),
        n_retried_flows=(
            sum(1 for r in timing.network.trace if r.status == "retried")
            if timing is not None
            else 0
        ),
        corrupted_ops=corrupted,
        unverifiable_ops=unverifiable,
    )
    if raise_on_error:
        if report.unverifiable_ops:
            raise IntegrityError(
                f"silent corruption possible: op(s) "
                f"{list(report.unverifiable_ops)[:8]} delivered corrupted "
                f"bytes but carry no checksum — delivery integrity cannot "
                f"be certified"
            )
        if report.gaps:
            raise IntegrityError(
                f"missing data on {len(report.gaps)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.gaps.items())[:8]
                )
            )
        if strict and report.duplicates:
            raise IntegrityError(
                f"duplicated deliveries on {len(report.duplicates)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.duplicates.items())[:8]
                )
            )
    return report
