"""Seeded graph6 input for the g6_stream workload.

Most records are random labeled graphs: the order is uniform in 5..9 and
each graph draws its own edge probability, uniform in [0, 1), so sparse,
dense and middling graphs all occur.  One record in fifty is a randomly
relabelled copy of G?Cj|{, the only order-8 class that needs three
deletions, so the solver's deepest search runs throughout the stream.
The records are shuffled together; the same seed gives the same file.

Regenerate a file by hand with

    python3 perfbench/g6input.py --seed 1 --out g6_stream.g6
"""

import argparse
import random

from refcheck import decode_graph6, encode_graph6

EXTREMAL = "G?Cj|{"
RECORDS = 100_000
EXTREMAL_EVERY = 50


def make_records(seed: int, count: int = RECORDS) -> list:
    rng = random.Random(seed)
    copies = count // EXTREMAL_EVERY
    records = []
    for _ in range(count - copies):
        n = rng.randint(5, 9)
        p = rng.random()
        adj = [set() for _ in range(n)]
        for j in range(1, n):
            for i in range(j):
                if rng.random() < p:
                    adj[i].add(j)
                    adj[j].add(i)
        records.append(encode_graph6(adj))
    base = decode_graph6(EXTREMAL)
    for _ in range(copies):
        perm = list(range(8))
        rng.shuffle(perm)
        adj = [set() for _ in range(8)]
        for u in range(8):
            adj[perm[u]] = {perm[v] for v in base[u]}
        records.append(encode_graph6(adj))
    rng.shuffle(records)
    return records


def write_file(path: str, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(rec + "\n" for rec in records))


def main() -> None:
    ap = argparse.ArgumentParser(description="write the g6_stream input file")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write_file(args.out, make_records(args.seed))


if __name__ == "__main__":
    main()
