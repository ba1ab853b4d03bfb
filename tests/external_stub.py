"""External estimator test double speaking the EST/POSE line protocol.

Modes: const (fixed reply), knn (k-NN over a database, replying with
normalised values), replay (request i gets line i of ``--replies FILE``,
and the process exits once the file runs out), garbage, badid, hang,
partial, exit. ``--log FILE`` appends each request's id to FILE, one per
line.
"""

import argparse
import sys
import time


def normalized_response(pose, env):
    """The `nx ny ntheta` payload an external process should emit for pose
    (x, y, theta)."""
    from neuromap.pose import normalize

    nx, ny, ntheta = normalize(pose, env.bounds).tolist()
    return f"{nx!r} {ny!r} {ntheta!r}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", default="const")
    ap.add_argument("--nx", type=float, default=0.0)
    ap.add_argument("--ny", type=float, default=0.0)
    ap.add_argument("--ntheta", type=float, default=0.0)
    ap.add_argument("--db")
    ap.add_argument("--env")
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--log")
    ap.add_argument("--replies")
    args = ap.parse_args()

    if args.mode == "exit":
        sys.exit(3)

    knn = env = None
    if args.mode == "knn":
        from neuromap.capture import load_dataset
        from neuromap.estimator import KnnConfig, KnnEstimator
        from neuromap.world import load_environment

        db = load_dataset(args.db)
        env = load_environment(args.env, sensor=db.sensor)
        knn = KnnEstimator(db, KnnConfig(k=args.k))

    replies = open(args.replies).read().splitlines() if args.mode == "replay" else []
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "QUIT":
            return
        req_id = parts[1]
        if args.log:
            with open(args.log, "a") as log:
                log.write(req_id + "\n")
        if args.mode == "hang":
            time.sleep(3600)
        elif args.mode == "partial":
            sys.stdout.write(f"POSE {req_id} 0.0")  # no newline, then stall
            sys.stdout.flush()
            time.sleep(3600)
        elif args.mode == "garbage":
            print("BLAH blah blah", flush=True)
        elif args.mode == "badid":
            print(f"POSE {int(req_id) + 1} 0.0 0.0 0.0", flush=True)
        elif args.mode == "knn":
            est = knn.estimate([[float(v) for v in parts[2:]]])[0]
            print(f"POSE {req_id} {normalized_response(est, env)}", flush=True)
        elif args.mode == "replay":
            if int(req_id) >= len(replies):
                return
            print(f"POSE {req_id} {replies[int(req_id)]}", flush=True)
        else:
            print(f"POSE {req_id} {args.nx!r} {args.ny!r} {args.ntheta!r}", flush=True)


if __name__ == "__main__":
    main()
