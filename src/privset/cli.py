"""Command-line front end.

Subcommands
-----------
params      structural profile, repetition factor, cost ledger, rates
table       render a query-table run with its cost summary
psi gen     generate sets / incidence vectors to files
psi run     intersect two local entities' set files over the simulated or TCP transport
psi connect intersect a local set file against databases that ``psi serve`` runs
psi serve   run one entity's databases as TCP servers
psi verify  re-check a saved transcript
audit       run the exact privacy/reliability audits

Every subcommand is deterministic given its seeds (an unseeded ``psi serve``
draws its pool, and an unseeded ``psi connect`` its query strategy, from
``secrets``).  ``--machine`` switches to line-oriented JSON records (one
object per line, each carrying a ``record`` discriminator).  Exit codes: 0
success, 2 usage error (a file or port that cannot be used included), 3
protocol/transport fault, 4 audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from random import Random

from . import audit as audit_mod
from . import block_scheme, psi, table_scheme, transport, wire
from .field import DOMAIN_CLIENT, domain_rng
from .params import (
    InfeasibleError,
    ParamError,
    SchemeParams,
    alpha_profile,
    check_modulus,
    cost_ledger,
    lspir_cost,
    psi_direction_cost,
    repetition_factor,
)
from .storage import CommonRandomnessPool, MessageStore

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROTOCOL = 3
EXIT_AUDIT = 4

SET_HEADER = "# privset set v1"
INCIDENCE_HEADER = "# privset incidence v1"


def _emit(args, record: dict, human: str) -> None:
    if args.machine:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def cmd_params(args) -> int:
    profile = alpha_profile(args.K, args.P, args.N)
    nu = repetition_factor(args.K, args.P, args.N)
    ledger = cost_ledger(args.K, args.P, args.N)
    mult = nu * profile.scale
    table_L = mult * ledger.message_length_per_rep
    table_D = mult * args.N * (ledger.D1 + ledger.D2)
    table_HS = mult * args.N * ledger.randomness
    block_D, block_HS = lspir_cost(args.P, args.N, args.L)
    record = {
        "record": "params",
        "K": args.K, "P": args.P, "N": args.N, "L": args.L,
        "alpha": list(profile.alpha), "scale": profile.scale, "nu": nu,
        "D1": _frac(ledger.D1), "U1": _frac(ledger.U1),
        "U2": _frac(ledger.U2), "D2": _frac(ledger.D2),
        "rate": _frac(ledger.rate),
        "table_message_length": _frac(table_L),
        "table_downloads": _frac(table_D),
        "table_randomness": _frac(table_HS),
        "block_downloads": block_D,
        "block_randomness": block_HS,
    }
    human = "\n".join([
        f"K={args.K} P={args.P} N={args.N} L={args.L}",
        f"stage profile alpha = {list(profile.alpha)} (scale {profile.scale}), repetitions nu = {nu}",
        f"ledger per database/repetition: D1={_frac(ledger.D1)} U1={_frac(ledger.U1)} "
        f"U2={_frac(ledger.U2)} D2={_frac(ledger.D2)}",
        f"rate = {_frac(ledger.rate)}  (capacity 1 - 1/N)",
        f"table run: message length {_frac(table_L)}, downloads {_frac(table_D)}, "
        f"shared randomness {_frac(table_HS)}",
        f"fixed-length run (L={args.L}): downloads {block_D}, shared randomness {block_HS}",
    ])
    _emit(args, record, human)
    return EXIT_OK


def cmd_table(args) -> int:
    params = SchemeParams(K=args.K, P=args.P, N=args.N, L=args.L, q=args.q)
    if args.P == args.K:
        msg = (
            f"P equals K: retrieving every message needs no private scheme; "
            f"download all {args.K * args.L} symbols from any single database."
        )
        _emit(args, {"record": "table", "advice": "download_all", "cost": args.K * args.L}, msg)
        return EXIT_OK
    desired = tuple(range(args.P)) if not args.desired else tuple(args.desired)
    rng = domain_rng(args.seed_client, DOMAIN_CLIENT)
    table = table_scheme.build_query_table(params, desired, rng, reps=args.reps)
    summary = {
        "record": "table",
        "K": args.K, "P": args.P, "N": args.N,
        "reps": table.reps, "scale": table.profile.scale,
        "desired_symbols": table.total_desired_symbols,
        "downloads": table.total_downloads,
        "randomness": table.pool_size,
        "rate": _frac(table.rate),
        "per_message": table.msg_fresh,
    }
    decoded_ok = None
    if args.run:
        store = MessageStore.generate(args.K, table.L_store, args.q, seed=args.seed_msg)
        pool = CommonRandomnessPool.generate(table.pool_size, args.q, seed=args.seed_cr)
        answers = [table_scheme.answer(table.view(db), store, pool) for db in range(args.N)]
        decoded_ok = all(val == store.flat[c] for c, val in table_scheme.decode(table, answers).items())
        summary["decoded_ok"] = decoded_ok
        if not decoded_ok:
            raise wire.ProtocolFault("decode mismatch against the generated store")
    if args.machine:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(table_scheme.render_text(table))
        print()
        print(
            f"desired symbols L = {table.total_desired_symbols}, downloads D = {table.total_downloads}, "
            f"shared randomness H(S) = {table.pool_size}, rate = {_frac(table.rate)}"
        )
        if decoded_ok is not None:
            print(f"run with seed_msg={args.seed_msg} seed_cr={args.seed_cr}: decode ok")
    return EXIT_OK


def _write_set(path: str, K: int, elements) -> None:
    with open(path, "w") as fh:
        fh.write(f"{SET_HEADER} K={K}\n")
        for e in sorted(elements):
            fh.write(f"{e}\n")


def read_set(path: str) -> tuple[int, frozenset[int]]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(SET_HEADER) or "K=" not in header:
            raise ParamError(f"{path} is not a set file")
        K = int(header.split("K=")[1])
        elems = frozenset(int(line) for line in fh if line.strip())
    return K, elems


def _write_incidence(path: str, vec: psi.IncidenceVector) -> None:
    with open(path, "w") as fh:
        fh.write(f"{INCIDENCE_HEADER} K={vec.K}\n")
        fh.write(vec.as_string() + "\n")


def _address(entry: str) -> tuple[str, int]:
    host, sep, port = entry.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ParamError(f"address {entry!r} is not host:port with a port in 0-65535")
    return host, int(port)


def cmd_psi_gen(args) -> int:
    rng = Random(args.seed)
    sets = [psi.generate_set(args.K, prob, rng) for prob in (args.q1, args.q2)]
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    for i, elements in enumerate(sets, 1):
        set_path = os.path.join(args.out_dir, f"entity{i}.set")
        inc_path = os.path.join(args.out_dir, f"entity{i}.incidence")
        _write_set(set_path, args.K, elements)
        _write_incidence(inc_path, psi.to_incidence(elements, args.K))
        paths.append((set_path, inc_path, len(elements)))
    record = {
        "record": "psi_gen", "K": args.K, "seed": args.seed,
        "sizes": [p[2] for p in paths],
        "files": [p[0] for p in paths] + [p[1] for p in paths],
    }
    human = "\n".join(
        f"entity {i + 1}: |set| = {paths[i][2]} -> {paths[i][0]}, {paths[i][1]}" for i in range(2)
    )
    _emit(args, record, human)
    return EXIT_OK


def _report_psi(args, result: psi.PsiResult, shape: dict, initiator: str, optimum: str) -> int:
    """Save the transcript if asked, and print the ``psi_result`` record of a local or remote run."""
    if args.save_transcript:
        result.transcript.save(args.save_transcript)
    record = {
        "record": "psi_result",
        **shape,
        "initiator": result.initiator,
        "intersection": sorted(result.intersection),
        "cardinality": result.cardinality,
        "download_symbols": result.download_symbols,
        "upload_bytes": result.transcript.upload_bytes,
        "optimal_cost": result.optimal_cost,
    }
    human = "\n".join([
        f"initiator: {initiator}",
        f"intersection ({result.cardinality} elements): {sorted(result.intersection)}",
        f"downloaded symbols: {result.download_symbols} ({optimum} {result.optimal_cost})",
    ])
    _emit(args, record, human)
    return EXIT_OK


def cmd_psi_run(args) -> int:
    (K1, s1), (K2, s2) = read_set(args.set1), read_set(args.set2)
    if K1 != K2:
        raise ParamError("set files disagree on K")
    e1 = psi.EntityConfig(1, K1, args.n1, s1)
    e2 = psi.EntityConfig(2, K2, args.n2, s2)
    result = psi.run_psi(e1, e2, backend=args.transport, seed_client=args.seed_client, seed_cr=args.seed_cr)
    shape = {"K": K1, "P1": e1.size, "P2": e2.size, "N1": args.n1, "N2": args.n2, "transport": args.transport}
    return _report_psi(args, result, shape, f"entity {result.initiator}", "optimum")


def cmd_psi_connect(args) -> int:
    K, elements = read_set(args.set)
    local = psi.EntityConfig(1, K, 2, elements)
    addresses = [_address(entry) for entry in args.databases.split(",")]
    result = psi.run_psi_remote(local, addresses, seed_client=args.seed_client)
    shape = {"K": K, "P1": local.size, "transport": "tcp"}
    initiator = f"local entity against {len(addresses)} remote databases"
    return _report_psi(args, result, shape, initiator, "this direction's optimum")


def cmd_psi_serve(args) -> int:
    if args.pool_size < 0:
        raise ParamError(f"--pool-size must be >= 0, got {args.pool_size}")
    K, elements = read_set(args.set)
    servers = psi.entity_servers(psi.EntityConfig(2, K, args.n_databases, elements), args.pool_size, args.seed_cr)
    host, base_port = _address(args.listen)
    pool_srv = transport.TcpServerPool(servers, host=host, base_port=base_port)
    pool_srv.start()
    print(json.dumps({
        "record": "psi_serve",
        "addresses": [f"{h}:{p}" for h, p in pool_srv.addresses],
        "K": K, "N": args.n_databases,
    }))
    sys.stdout.flush()
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pool_srv.stop()
    return EXIT_OK


def _shape_problems(transcript: transport.Transcript, K: int, P: int, N: int, q: int) -> list[str]:
    """What the transcript of an honest run of its own shape shows, checked from
    the transcript alone: one record per responder database, the download is
    the direction's cost, and each database got at most one body, every block
    body a run from one first slot with the entry count ``plan_blocks`` lays
    out for (P, N).  Nothing is sized by the metadata's K, P or N."""
    if not 0 <= P <= K:
        raise ParamError(f"transcript metadata has P_initiator={P} outside 0 to K={K}")
    check_modulus(q)  # every recorded vector is read over the transcript's field
    if N != len(transcript.records):
        return [f"the transcript records {len(transcript.records)} databases, not N_responder={N}"]
    problems = []
    cost, measured = psi_direction_cost(P, N, K), transcript.downloaded_symbols
    if measured != cost:
        problems.append(f"downloaded {measured} symbols, not the {cost} of P_initiator={P} against N_responder={N}")
    runs: dict[int, tuple[int, int]] = {}  # database -> (first slot, entry count) of its block body
    for db, db_records in enumerate(transcript.records):
        if len(db_records) > 1:
            problems.append(f"database {db} got {len(db_records)} bodies, not at most one")
        for qry, _ in db_records:
            body = wire.parse_query(qry)[1]
            if body[0] == wire.BLOCK_QUERY_TAG:
                first, vectors = wire.parse_block_query(body, q, K)
                runs[db] = (first, len(vectors))
    first = next(iter(runs.values()), (0, 0))[0]  # the first slot of the lowest database's run

    def text(run):
        return f"{run[1]} entries from slot {run[0]}" if run else "no block body"

    for db in range(N):
        count = block_scheme.entry_count(db, P, N) if 0 < P < K else 0
        want = (first, count) if count else None
        if runs.get(db) != want:
            problems.append(f"database {db} got {text(runs.get(db))}; the run's shape lays out {text(want)}")
    return problems


def cmd_psi_verify(args) -> int:
    transcript = transport.Transcript.load(args.transcript)
    if args.dump:
        print(transcript.dump_text())
        return EXIT_OK
    meta = transcript.meta
    measured = transcript.downloaded_symbols
    K, P, N, q = (meta.get(key) for key in ("K", "P_initiator", "N_responder", "q"))
    shaped = all(type(v) is int for v in (K, P, N))
    problems = _shape_problems(transcript, K, P, N, q) if shaped else []
    if args.responder_set:
        if meta.get("seed_cr") is None:
            raise ParamError(
                "answer replay needs the pool seed, which the transcript of a remote session does not carry"
            )
        K, elements = read_set(args.responder_set)
        if K != meta.get("K"):
            problems.append("responder set file disagrees with the transcript's K")
        else:
            if not shaped:
                raise ParamError("transcript metadata lacks the run's P_initiator and N_responder (integers, P from 0 to K)")
            # The responder as run_psi stood it up: its own store, one database per record, D - P pool symbols.
            responder = psi.EntityConfig(2 if meta.get("initiator") == 1 else 1, K, len(transcript.records), elements)
            servers = psi.entity_servers(responder, psi_direction_cost(P, N, K) - P, meta["seed_cr"])
            if not transport.replay_answers(transcript, servers):
                problems.append("recorded answers do not replay against the given store")
    record = {
        "record": "psi_verify",
        "meta": meta,
        "download_symbols": measured,
        "upload_bytes": transcript.upload_bytes,
        "replayed": bool(args.responder_set) and not problems,
        "problems": problems,
    }
    human = "\n".join(
        [f"transcript: initiator entity {meta.get('initiator')}, {measured} symbols downloaded"]
        + ([f"PROBLEM: {p}" for p in problems] or ["transcript consistent"])
    )
    _emit(args, record, human)
    return EXIT_PROTOCOL if problems else EXIT_OK


def cmd_audit(args) -> int:
    params = SchemeParams(K=args.K, P=args.P, N=args.N, L=args.L, q=args.q)
    if args.trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {args.trials}")
    verdicts: dict[str, audit_mod.Verdict] = {}
    if args.scheme == "block":
        verdicts["user_privacy"] = audit_mod.audit_block_user_privacy(params, mutant=args.mutant)
        verdicts["db_privacy"] = audit_mod.audit_block_db_privacy(params, mutant=args.mutant)
        if args.mutant is None:
            verdicts["reliability"] = audit_mod.audit_reliability_block(params, trials=args.trials)
    else:
        verdicts["user_privacy"] = audit_mod.audit_table_user_privacy(params, mutant=args.mutant)
        verdicts["db_privacy"] = audit_mod.audit_table_db_privacy(params, mutant=args.mutant)
        if args.mutant is None:
            verdicts["reliability"] = audit_mod.audit_reliability_table(params, trials=args.trials)
    all_ok = all(v.ok for v in verdicts.values())
    for name, v in verdicts.items():
        record = {
            "record": "audit",
            "scheme": args.scheme,
            "check": name,
            "ok": v.ok,
            "distance": _frac(v.distance),
            "detail": v.detail,
            "mutant": args.mutant,
        }
        _emit(args, record, f"{args.scheme} {name}: {'PASS' if v.ok else 'FAIL'} ({v.detail})")
    return EXIT_OK if all_ok else EXIT_AUDIT


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", action="store_true", help="emit line-oriented JSON records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privset", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="profile, repetition factor, ledger, rates", allow_abbrev=False)
    p.add_argument("--K", type=int, required=True, help="number of messages")
    p.add_argument("--P", type=int, required=True, help="number of desired messages")
    p.add_argument("--N", type=int, required=True, help="databases per entity")
    p.add_argument("--L", type=int, default=1, help="message length for the fixed-length scheme")
    _add_common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("table", help="render a query-table run", allow_abbrev=False)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=int, default=1, help="only used for the P == K advice")
    p.add_argument("--q", type=int, default=2, help="field modulus")
    p.add_argument("--reps", type=int, default=None, help="override the repetition factor")
    p.add_argument("--desired", type=int, nargs="*", default=None, help="desired message indices")
    p.add_argument("--seed-client", type=int, default=0)
    p.add_argument("--run", action="store_true", help="execute against a generated store and decode")
    p.add_argument("--seed-msg", type=int, default=0, help="message store seed for --run")
    p.add_argument("--seed-cr", type=int, default=0, help="randomness pool seed for --run")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    psi_parser = sub.add_parser("psi", help="set intersection commands", allow_abbrev=False)
    psi_sub = psi_parser.add_subparsers(dest="psi_command", required=True)

    p = psi_sub.add_parser("gen", help="generate sets and incidence vectors", allow_abbrev=False)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--q1", type=float, default=0.5, help="inclusion probability for entity 1")
    p.add_argument("--q2", type=float, default=0.5, help="inclusion probability for entity 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_psi_gen)

    p = psi_sub.add_parser("run", help="intersect two local entities' sets", allow_abbrev=False)
    p.add_argument("--set1", required=True, help="set file for entity 1")
    p.add_argument("--set2", required=True, help="set file for entity 2")
    p.add_argument("--n1", type=int, default=2, help="databases of entity 1 (default %(default)s)")
    p.add_argument("--n2", type=int, default=2, help="databases of entity 2 (default %(default)s)")
    p.add_argument("--transport", choices=["sim", "tcp"], default="sim", help="transport backend (default %(default)s)")
    p.add_argument("--seed-client", type=int, default=0, help="query strategy seed (default %(default)s)")
    p.add_argument("--seed-cr", type=int, default=0, help="randomness pool seed (default %(default)s)")
    p.add_argument("--save-transcript", help="write the binary transcript here")
    _add_common(p)
    p.set_defaults(func=cmd_psi_run)

    p = psi_sub.add_parser("connect", help="intersect a local set against served databases", allow_abbrev=False)
    p.add_argument("--set", required=True, help="set file for the local entity, which initiates")
    p.add_argument("--databases", required=True, help="comma-separated host:port list of the served databases")
    p.add_argument("--seed-client", type=int, help="query strategy seed (default: drawn from secrets)")
    p.add_argument("--save-transcript", help="write the binary transcript here")
    _add_common(p)
    p.set_defaults(func=cmd_psi_connect)

    p = psi_sub.add_parser("serve", help="serve one entity's databases over TCP", allow_abbrev=False)
    p.add_argument("--set", required=True, help="set file")
    p.add_argument("--n-databases", type=int, default=2)
    p.add_argument("--listen", default="127.0.0.1:0", help="host:base_port (0 = ephemeral)")
    p.add_argument("--pool-size", type=int, default=1024)
    p.add_argument("--seed-cr", type=int, help="seed for a reproducible pool (default: symbols drawn from secrets)")
    _add_common(p)
    p.set_defaults(func=cmd_psi_serve)

    p = psi_sub.add_parser("verify", help="re-check a saved transcript", allow_abbrev=False)
    p.add_argument("--transcript", required=True)
    p.add_argument("--responder-set", help="set file enabling full answer replay")
    p.add_argument("--dump", action="store_true", help="print the text dump and exit")
    _add_common(p)
    p.set_defaults(func=cmd_psi_verify)

    p = sub.add_parser("audit", help="run exact privacy and reliability audits", allow_abbrev=False)
    p.add_argument("--scheme", choices=["table", "block"], required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--trials", type=int, default=50, help="reliability trials, at least 1")
    p.add_argument("--mutant", default=None,
                   help="negative control: no_base_mask, no_cr, no_index_permutation, "
                        "no_pool_relabel, no_hidden_cr")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, InfeasibleError, ValueError, OSError) as exc:  # OSError: a file or port we cannot use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (wire.ProtocolFault, transport.InsufficientRandomness) as exc:
        print(f"protocol fault: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
