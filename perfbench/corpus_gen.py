"""Seeded synthetic corpora in the two raw layouts `crossrec prepare` reads.

The real MovieLens-1M files cannot be fetched, so the benchmark writes
look-alikes. Both layouts share one taste model: item popularity is
Zipf-skewed, each user prefers the genres (categories) that their
attribute values favour, and a small latent user/item factor adds a
personal component. Items are drawn per user without replacement by
Gumbel top-k over those log-weights, so a trained model can beat chance
HR@10 (0.10) by learning popularity, attribute affinity and the latent
factor.

Per-user interaction counts are a fixed multiset (quantiles of a skewed
distribution) shuffled by the seed, so every seed gives the same number of
interactions and therefore the same amount of training work.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

ML_ITEMS = 3706
ML_RAW_ITEM_MAX = 3952
ML_GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
# movies per genre in MovieLens-1M, in ML_GENRES order; fixes the genre mix for every seed
ML_GENRE_COUNTS = (503, 283, 105, 251, 1200, 211, 127, 1603, 68, 44, 343, 114, 106, 471, 276, 492, 143, 68)
ML_GENDERS = ("F", "M")
ML_AGES = (1, 18, 25, 35, 45, 50, 56)
ML_OCCUPATIONS = 21
ML_MEAN_INTERACTIONS = 165
ML_MIN_INTERACTIONS = 20

GENERIC_MAIN_CATEGORIES = 12
GENERIC_SPELLINGS = 5           # raw category names the map collapses into each main one

LATENT_DIM = 4


def _counts(num_users, mean, minimum, maximum, sigma, rng):
    """A fixed multiset of per-user counts with the given mean, shuffled by rng.

    The counts are lognormal quantiles, shifted to `minimum` and scaled to
    `mean`; only the assignment to users depends on the seed.
    """
    normal = statistics.NormalDist()
    z = np.array([normal.inv_cdf((k + 0.5) / num_users) for k in range(num_users)])
    raw = np.exp(sigma * z)
    raw = raw / raw.mean() * (mean - minimum)
    counts = np.clip(np.rint(raw).astype(np.int64) + minimum, minimum, maximum)
    return rng.permutation(counts)


def _draw_items(weights_fn, counts, num_users, rng, chunk=512):
    """Per-user distinct items: Gumbel top-k over each user's log-weights."""
    picked = []
    for start in range(0, num_users, chunk):
        stop = min(start + chunk, num_users)
        logw = weights_fn(start, stop)
        keys = logw + rng.gumbel(size=logw.shape)
        k = int(counts[start:stop].max())
        top = np.argpartition(-keys, k - 1, axis=1)[:, :k]
        order = np.argsort(-np.take_along_axis(keys, top, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(top, order, axis=1)
        for row, u in enumerate(range(start, stop)):
            picked.append(np.sort(ranked[row, :counts[u]]))
    return picked


def _standardize(rows):
    """Rows shifted and scaled to mean 0 and standard deviation 1."""
    rows = rows - rows.mean(axis=1, keepdims=True)
    return rows / rows.std(axis=1, keepdims=True)


def _taste_model(rng, num_items, num_groups, num_values, attr_values, item_groups, zipf):
    """Log-weight function over (user, item) from popularity, attributes and latents."""
    pop_rank = rng.permutation(num_items)
    log_pop = -zipf * np.log(pop_rank + 10.0)
    # every attribute value and every latent vector gets the same strength, so
    # seeds differ in which items users like, not in how learnable tastes are
    value_affinity = _standardize(rng.normal(0.0, 1.0, size=(num_values, num_groups)))
    user_affinity = value_affinity[attr_values].sum(axis=1)        # (users, groups)
    item_share = item_groups / item_groups.sum(axis=1, keepdims=True)
    user_latent = _standardize(rng.normal(0.0, 1.0, size=(len(attr_values), LATENT_DIM)))
    item_latent = _standardize(rng.normal(0.0, 1.0, size=(num_items, LATENT_DIM)))

    def weights(start, stop):
        return (
            log_pop[None, :]
            + 0.8 * user_affinity[start:stop] @ item_share.T
            + 0.5 * user_latent[start:stop] @ item_latent.T
        )

    return weights


def _timestamps(count, rng):
    return np.sort(rng.integers(956_700_000, 1_046_400_000, size=count))


def _write(path, lines, encoding="utf-8"):
    with open(path, "w", encoding=encoding, newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_movielens(directory, num_users, seed):
    """ratings.dat, users.dat and movies.dat shaped like MovieLens-1M.

    3,706 movies with ids scattered over 1..3952, 1-3 genres each out of 18;
    users carry gender, one of 7 age buckets and one of 21 occupations
    (30 attribute values); about 165 ratings per user, at least 20.
    Returns (ratings, users, movies) paths.
    """
    rng = np.random.default_rng([seed, 1])
    os.makedirs(directory, exist_ok=True)
    raw_items = np.sort(rng.choice(np.arange(1, ML_RAW_ITEM_MAX + 1), size=ML_ITEMS, replace=False))
    genre_pop = np.asarray(ML_GENRE_COUNTS, dtype=np.float64) / sum(ML_GENRE_COUNTS)
    item_groups = np.zeros((ML_ITEMS, len(ML_GENRES)))
    for i in range(ML_ITEMS):
        k = 1 + int(rng.choice(3, p=(0.5, 0.35, 0.15)))
        item_groups[i, rng.choice(len(ML_GENRES), size=k, replace=False, p=genre_pop)] = 1.0

    genders = rng.integers(len(ML_GENDERS), size=num_users)
    ages = rng.choice(len(ML_AGES), size=num_users, p=(0.04, 0.18, 0.35, 0.2, 0.09, 0.08, 0.06))
    occupations = rng.integers(ML_OCCUPATIONS, size=num_users)
    attr_values = np.stack(
        [genders, len(ML_GENDERS) + ages, len(ML_GENDERS) + len(ML_AGES) + occupations], axis=1
    )
    num_values = len(ML_GENDERS) + len(ML_AGES) + ML_OCCUPATIONS
    weights = _taste_model(rng, ML_ITEMS, len(ML_GENRES), num_values, attr_values, item_groups, 1.0)
    counts = _counts(num_users, ML_MEAN_INTERACTIONS, ML_MIN_INTERACTIONS, 1500, 0.9, rng)
    picked = _draw_items(weights, counts, num_users, rng)

    ratings = []
    for u, items in enumerate(picked):
        stamps = _timestamps(items.size, rng)
        stars = rng.integers(1, 6, size=items.size)
        order = rng.permutation(items.size)
        for i, s, t in zip(items[order], stars, stamps):
            ratings.append(f"{u + 1}::{raw_items[i]}::{s}::{t}")
    users = [
        f"{u + 1}::{ML_GENDERS[genders[u]]}::{ML_AGES[ages[u]]}::{occupations[u]}::{10000 + u:05d}"
        for u in range(num_users)
    ]
    movies = []
    for i in range(ML_ITEMS):
        names = "|".join(ML_GENRES[g] for g in np.flatnonzero(item_groups[i]))
        movies.append(f"{raw_items[i]}::Film {raw_items[i]} (19{50 + i % 50})::{names}")
    paths = tuple(os.path.join(directory, f) for f in ("ratings.dat", "users.dat", "movies.dat"))
    for path, lines in zip(paths, (ratings, users, movies)):
        _write(path, lines, encoding="iso-8859-1")
    return paths


def write_generic(directory, num_users, num_items, seed):
    """Pin-style TSVs: interactions, user and item attributes, a category map.

    Each of 12 main categories has 5 raw spellings that the map collapses;
    users list 1-3 raw interests and items 1-2 raw categories.
    Every user has at least 10 interactions (about 13 on average), so
    parse_generic's >= 10 filter keeps them all. Returns (interactions,
    user_attrs, item_attrs, category_map) paths.
    """
    rng = np.random.default_rng([seed, 2])
    os.makedirs(directory, exist_ok=True)
    num_main, per_main = GENERIC_MAIN_CATEGORIES, GENERIC_SPELLINGS
    raw_names = [f"cat{m:02d}_{k}" for m in range(num_main) for k in range(per_main)]
    main_of = np.repeat(np.arange(num_main), per_main)

    item_raw = [rng.choice(len(raw_names), size=1 + int(rng.integers(2)), replace=False)
                for _ in range(num_items)]
    item_groups = np.zeros((num_items, num_main))
    for i, names in enumerate(item_raw):
        item_groups[i, main_of[names]] = 1.0
    user_raw = [rng.choice(len(raw_names), size=1 + int(rng.integers(3)), replace=False)
                for _ in range(num_users)]
    # one affinity row per main category; a user's affinity sums over their interests
    attr_values = np.full((num_users, 3), num_main, dtype=np.int64)
    for u, names in enumerate(user_raw):
        attr_values[u, :len(names)] = main_of[names]
    weights = _taste_model(rng, num_items, num_main, num_main + 1, attr_values, item_groups, 1.1)
    counts = _counts(num_users, 13, 10, 60, 0.8, rng)
    picked = _draw_items(weights, counts, num_users, rng)

    raw_user = 1000 + rng.permutation(num_users * 3)[:num_users]
    raw_item = 50_000 + rng.permutation(num_items * 2)[:num_items]
    inter = []
    for u, items in enumerate(picked):
        stamps = _timestamps(items.size, rng)
        order = rng.permutation(items.size)
        for i, t in zip(items[order], stamps):
            inter.append(f"{raw_user[u]}\t{raw_item[i]}\t{t}")
    uattr = [f"{raw_user[u]}\t{raw_names[n]}" for u, names in enumerate(user_raw) for n in names]
    iattr = [f"{raw_item[i]}\t{raw_names[n]}" for i, names in enumerate(item_raw) for n in names]
    cmap = [f"{name}\tmain{main_of[k]:02d}" for k, name in enumerate(raw_names)]
    paths = tuple(
        os.path.join(directory, f)
        for f in ("interactions.tsv", "user_attrs.tsv", "item_attrs.tsv", "category_map.tsv")
    )
    for path, lines in zip(paths, (inter, uattr, iattr, cmap)):
        _write(path, lines)
    return paths
