"""The access-core: one set of access semantics, two engine wrappers.

This package is the single home of the §4.1.2/§6.2.2 access timeline —
metadata open, per-disk request routing through the link/fault timelines,
block service, arrival-ordered tracker consumption, cancel accounting and
decode-tail charging.  Two engines *wrap* it without duplicating it:

* the **closed-form engine** (the :mod:`repro.core.policy` dispatchers)
  evaluates the core's timeline vectorised — :func:`timeline.serve_read_queues`
  builds per-disk :class:`timeline.DiskStream` objects in one shot and
  :func:`timeline.read_epilogue` settles completion, cancel accounting,
  tracing and repair annotation (:func:`timeline.adaptive_epilogue` for
  work-stealing reads, which :class:`adaptive.AdaptiveRead` computes);
* the **event-driven engine** (:mod:`repro.accesscore.events`) runs the
  same objects as discrete-event processes on the :mod:`repro.sim` kernel,
  one client class per dispatch policy, and settles through the *same*
  two epilogues.

Single wiring sites (the unification contract):

* link/fault routing — :mod:`repro.accesscore.routing`
  (``request_arrival_time`` / ``response_arrival_times``), plus
  :class:`events.EventRun` for the one DES fault-pump attachment;
* scheme-level read tracing — :mod:`repro.accesscore.tracing` via the
  two epilogues (and :func:`tracing.trace_handoff` for hand-offs);
* adaptive hand-off rules (budget, victim choice, second-half steal,
  last-block pace test, round 1's filer-cache split) —
  :mod:`repro.accesscore.adaptive`, for both engines;
* repair triggering — :func:`repro.accesscore.repair.annotate_repair`.

Layering rule: ``accesscore`` never imports :mod:`repro.core` — policy
objects (completion/reaction/write singletons) are passed in and duck-typed,
which is what lets both engines share one epilogue without an import cycle.
"""
