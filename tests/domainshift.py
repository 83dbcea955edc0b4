"""Synthetic corpus with domain-bound spurious tokens, for generalization tests.

Four source domains share one stance vocabulary: cue tokens that point at the
right label 85% of the time. Each domain also injects its own marker token
that accompanies a single stance 95% of the time in-domain, making it the
easiest feature available. The marker-to-stance mapping splits evenly across
domains (two markers go with FAVOR, two with AGAINST), so a stance rule built
on markers only works when it also knows which domain it is in. Held-out
examples flip every marker to the opposite stance and carry no domain label:
a model leaning on markers lands at or below chance there, while one reading
the shared cues transfers.

All randomness is seeded, so a given seed always produces the same corpus,
embeddings, and training trajectory.
"""
import numpy as np

from stancegen.data import Corpus, EmbeddingMatrix, Example, build_vocab, encode_corpus
from stancegen.models import ModelSpec, build_model
from stancegen.training import Hyperparams, predict_corpus, train

FAVOR_CUES = ["great", "win", "bright"]
AGAINST_CUES = ["awful", "fail", "grim"]
FILLERS = ["the", "a", "it", "so", "very", "then", "still"]
SPURS = ["alpha", "beta", "gamma", "delta"]
# the stance each spurious marker accompanies inside its own domain
SPUR_DIRECTION = ("FAVOR", "FAVOR", "AGAINST", "AGAINST")
CUE_RELIABILITY = 0.85
SPUR_RATE = 0.95

EMBED_DIM = 8
HIDDEN_DIM = 6
ATTN_DIM = 8


def _sentence(rng, stance, spur):
    cue_truthful = rng.random() < CUE_RELIABILITY
    pool = FAVOR_CUES if (stance == "FAVOR") == cue_truthful else AGAINST_CUES
    tokens = [str(rng.choice(pool))]
    if spur is not None:
        tokens.append(spur)
    tokens += [str(t) for t in rng.choice(FILLERS, size=int(rng.integers(2, 5)))]
    rng.shuffle(tokens)
    return tokens


def _example(tokens, stance, domain):
    return Example(
        sentence_tokens=list(tokens),
        target_tokens=["issue"],
        stance=stance,
        raw_text=" ".join(tokens),
        raw_target="issue",
        domain_index=domain,
    )


def make_source(rng, per_domain):
    examples = []
    for d in range(4):
        for i in range(per_domain):
            stance = "FAVOR" if i % 2 == 0 else "AGAINST"
            spur = SPURS[d] if stance == SPUR_DIRECTION[d] and rng.random() < SPUR_RATE else None
            examples.append(_example(_sentence(rng, stance, spur), stance, d))
    return examples


def make_heldout(rng, n):
    examples = []
    for i in range(n):
        stance = "FAVOR" if i % 2 == 0 else "AGAINST"
        d = int(rng.integers(0, 4))
        # anti-correlated: the marker shows up with the opposite stance
        spur = SPURS[d] if stance != SPUR_DIRECTION[d] and rng.random() < SPUR_RATE else None
        examples.append(_example(_sentence(rng, stance, spur), stance, None))
    return examples


def build(seed, per_domain=40, dev_n=40, held_n=80):
    """Return (train, dev, held-out) corpora plus seeded embeddings.

    Dev is drawn from the source domains but carries no domain labels, like
    real validation data for an unseen-target model. Embeddings are frozen
    uniform draws on [-0.5, 0.5); the hash-seeded fallback vectors are an
    order of magnitude smaller and too faint to train on at this scale.
    """
    rng = np.random.default_rng([seed, 99])
    train_c = Corpus(make_source(rng, per_domain))
    dev_c = Corpus(make_source(rng, dev_n // 4))
    for ex in dev_c:
        ex.domain_index = None
    held_c = Corpus(make_heldout(rng, held_n))
    vocab = build_vocab([train_c])
    emb_rng = np.random.default_rng([seed, 7])
    values = emb_rng.uniform(-0.5, 0.5, (len(vocab), EMBED_DIM))
    values[0] = 0.0
    emb = EmbeddingMatrix(values=values)
    for c in (train_c, dev_c, held_c):
        encode_corpus(c, vocab)
    return train_c, dev_c, held_c, emb


def accuracy(model, corpus):
    preds = predict_corpus(model, corpus)
    return sum(p == ex.stance for p, ex in zip(preds, corpus)) / len(corpus)


def run_experiment(
    seed, variant, emb, train_c, dev_c, held_c, lam=2.0, epochs=30, lr=0.02, dtype=np.float32
):
    """Train one variant on the synthetic corpus; return held-out accuracy."""
    spec = ModelSpec(
        variant=variant, embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM,
        attn_dim=ATTN_DIM, num_domains=4,
    )
    model = build_model(spec, seed, emb, dtype=dtype)
    hp = Hyperparams(
        embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM, attn_dim=ATTN_DIM,
        dropout=0.0, batch_size=8, learning_rate=lr, l2=0.0,
        patience=epochs, lam=lam, max_epochs=epochs, seed=seed,
    )
    train(model, train_c, dev_c, hp)
    return accuracy(model, held_c)
