"""The pinned preparation corpus: prepared plans that must not move.

Preparation (normalize + optimize, :meth:`repro.engine.cache.PlanCache.
prepared`) is pure, so its output on a fixed seeded corpus is a
constant.  :data:`PREPARE_DIGEST` pins it: a SHA-256 over the canonical
text (:func:`repro.store.codec.canonical_plan_text`) of every prepared
plan, with the optimizer's per-rule rewrite tallies and pass count.

A change that moves any of them — even a sound one — changes the
digest.  Making preparation cheaper must leave the digest alone.  The
digest also pins durable-store compatibility: :func:`repro.store.codec.
plan_hash` digests the same canonical text, so a moved plan would miss
every result a store persisted under its old hash.

``tests/test_engine/test_optimize_golden.py`` asserts the digest, and
experiment E20 asserts it while timing cold preparation.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterable

from ..engine import Plan, plan_from_sentence
from ..engine.optimize import OptimizeResult
from ..store.codec import canonical_plan_text
from .generators import BUILTIN_HSDBS, builtin_hsdb, gen_sentence

#: Seed of the corpus's one random stream.
CORPUS_SEED = "prepare-golden"

#: Sentences per builtin hs database (``gen_sentence`` at its defaults).
PER_DATABASE = 60

#: The digest of :func:`prepare_corpus` under :func:`prepare_digest`.
PREPARE_DIGEST = (
    "beb8991beb8e28497f8ba53d9e4211fb95fcdac296675c37648663dbeab19605")


def prepare_corpus(per_database: int = PER_DATABASE
                   ) -> list[tuple[tuple[int, ...], Plan]]:
    """``(signature, lowered plan)`` of seeded random FO sentences,
    taking the builtin hs databases in turn; a plan already drawn for
    the same signature is skipped, so every entry prepares cold."""
    rng = random.Random(CORPUS_SEED)
    signatures = [tuple(builtin_hsdb(name).signature)
                  for name in BUILTIN_HSDBS]
    corpus: list[tuple[tuple[int, ...], Plan]] = []
    seen = set()
    while len(corpus) < per_database * len(signatures):
        signature = signatures[len(corpus) % len(signatures)]
        plan = plan_from_sentence(gen_sentence(rng, signature), signature)
        if (signature, plan) not in seen:
            seen.add((signature, plan))
            corpus.append((signature, plan))
    return corpus


def prepare_digest(rows: Iterable[tuple[Plan, OptimizeResult]]) -> str:
    """SHA-256 over ``(prepared plan, optimizer evidence)`` rows: the
    plan's canonical text, its per-rule rewrites and its pass count."""
    digest = hashlib.sha256()
    for prepared, result in rows:
        line = json.dumps([canonical_plan_text(prepared),
                           result.rewrites, result.passes])
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()
