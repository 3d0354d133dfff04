"""Command-line front end.

Subcommands
-----------
params      structural profile, repetition factor, cost ledger, rates
table       render a query-table run with its cost summary
psi gen     generate sets / incidence vectors to files
psi run     execute an intersection over the simulated or TCP transport
psi serve   run one entity's databases as TCP servers
psi verify  re-check a saved transcript
audit       run the exact privacy/reliability audits

Every subcommand is deterministic given its seeds.  ``--machine`` switches
to line-oriented JSON records (one object per line, each carrying a
``record`` discriminator).  Exit codes: 0 success, 2 usage error (a file or
port that cannot be used included) or an audit refused for its budget,
3 protocol/transport fault, 4 audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from random import Random

from . import audit as audit_mod
from . import psi, table_scheme, transport, wire
from .field import DOMAIN_CLIENT, domain_rng
from .params import (
    InfeasibleError,
    ParamError,
    SchemeParams,
    alpha_profile,
    check_modulus,
    cost_ledger,
    lspir_cost,
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
    nu = repetition_factor(args.K, args.P, args.N, profile)
    ledger = cost_ledger(args.K, args.P, args.N, profile)
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
    if args.P == args.K:
        msg = (
            f"P equals K: retrieving every message needs no private scheme; "
            f"download all {args.K * args.L} symbols from any single database."
        )
        _emit(args, {"record": "table", "advice": "download_all", "cost": args.K * args.L}, msg)
        return EXIT_OK
    params = SchemeParams(K=args.K, P=args.P, N=args.N, q=args.q)
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
        answers = [table_scheme.answer_wire_query(table.wire_query(db), store, pool) for db in range(args.N)]
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
    if not sep or not port.isdigit():
        raise ParamError(f"address {entry!r} is not host:port")
    return host, int(port)


def cmd_psi_gen(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    rng = Random(args.seed)
    paths = []
    for i, prob in ((1, args.q1), (2, args.q2)):
        elements = psi.generate_set(args.K, prob, rng)
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


def _load_entities(args) -> tuple[psi.EntityConfig, psi.EntityConfig]:
    if args.set1 or args.set2:
        if not (args.set1 and args.set2):
            given, missing = ("--set1", "--set2") if args.set1 else ("--set2", "--set1")
            raise ParamError(f"{given} needs {missing}: a local run reads both entities' set files")
        K1, s1 = read_set(args.set1)
        K2, s2 = read_set(args.set2)
        if K1 != K2:
            raise ParamError("set files disagree on K")
        K = K1
    else:
        rng = Random(args.seed_sets)
        K = args.K
        s1 = psi.generate_set(K, args.q1, rng)
        s2 = psi.generate_set(K, args.q2, rng)
    e1 = psi.EntityConfig(1, K, args.n1, s1)
    e2 = psi.EntityConfig(2, K, args.n2, s2)
    return e1, e2


def cmd_psi_run(args) -> int:
    if args.connect:
        if not args.set1:
            raise ParamError("--connect requires --set1 (the local entity's set)")
        K, s1 = read_set(args.set1)
        local = psi.EntityConfig(1, K, 2, s1)
        addresses = [_address(entry) for entry in args.connect.split(",")]
        result = psi.run_psi_remote(
            local, addresses, seed_client=args.seed_client, forward_result=not args.no_forward
        )
        shape = {"K": K, "P1": local.size, "transport": "tcp"}
        initiator = f"local entity against {len(addresses)} remote databases"
        optimum = "this direction's optimum"
    else:
        e1, e2 = _load_entities(args)
        result = psi.run_psi(
            e1, e2,
            backend=args.transport,
            seed_client=args.seed_client,
            seed_cr=args.seed_cr,
            forward_result=not args.no_forward,
        )
        shape = {
            "K": e1.K, "P1": e1.size, "P2": e2.size,
            "N1": e1.n_databases, "N2": e2.n_databases,
            "transport": args.transport,
        }
        initiator = f"entity {result.initiator}"
        optimum = "optimum"
    if args.save_transcript:
        result.transcript.save(args.save_transcript)
    record = {
        "record": "psi_result",
        **shape,
        "initiator": result.initiator,
        "intersection": sorted(result.intersection),
        "cardinality": result.cardinality,
        "download_symbols": result.download_symbols,
        "optimal_cost": result.optimal_cost,
    }
    human = "\n".join([
        f"initiator: {initiator}",
        f"intersection ({result.cardinality} elements): {sorted(result.intersection)}",
        f"downloaded symbols: {result.download_symbols} ({optimum} {result.optimal_cost})",
    ])
    _emit(args, record, human)
    return EXIT_OK


def cmd_psi_serve(args) -> int:
    K, elements = read_set(args.set)
    servers = psi.entity_servers(psi.EntityConfig(args.entity, K, args.n_databases, elements))
    pool = CommonRandomnessPool.generate(args.pool_size, 2, args.seed_cr)
    transport.provision_cr(servers, pool, 0)
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
        import time

        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pool_srv.stop()
    return EXIT_OK


def cmd_psi_verify(args) -> int:
    transcript = transport.Transcript.load(args.transcript)
    if args.dump:
        print(transcript.dump_text())
        return EXIT_OK
    meta = transcript.meta
    measured = transcript.downloaded_symbols
    problems = []
    if args.responder_set:
        if meta.get("seed_cr") is None:
            raise ParamError(
                "answer replay needs the pool seed, which the transcript of a remote session does not carry"
            )
        K, elements = read_set(args.responder_set)
        if K != meta.get("K"):
            problems.append("responder set file disagrees with the transcript's K")
        else:
            store = MessageStore.from_bits(psi.to_incidence(elements, K).bits)
            q = meta.get("q")
            check_modulus(q)
            required = 0
            for db_records in transcript.records:
                for qry, _ in db_records:
                    _, body = wire.parse_query(qry)
                    if body[0] == wire.BLOCK_QUERY_TAG:
                        required = max([required] + [cr_id + 1 for cr_id, _, _ in wire.parse_block_query(body, q)])
            pool = CommonRandomnessPool.generate(required, 2, meta["seed_cr"])
            if not transport.replay_answers(transcript, store, pool):
                problems.append("recorded answers do not replay against the given store")
    record = {
        "record": "psi_verify",
        "meta": meta,
        "download_symbols": measured,
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
        verdicts["user_privacy"] = audit_mod.audit_block_user_privacy(params, mutant=args.mutant, budget=args.budget)
        verdicts["db_privacy"] = audit_mod.audit_block_db_privacy(params, mutant=args.mutant, budget=args.budget)
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
    parser = argparse.ArgumentParser(prog="privset", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="profile, repetition factor, ledger, rates")
    p.add_argument("--K", type=int, required=True, help="number of messages")
    p.add_argument("--P", type=int, required=True, help="number of desired messages")
    p.add_argument("--N", type=int, required=True, help="databases per entity")
    p.add_argument("--L", type=int, default=1, help="message length for the fixed-length scheme")
    _add_common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("table", help="render a query-table run")
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

    psi_parser = sub.add_parser("psi", help="set intersection commands")
    psi_sub = psi_parser.add_subparsers(dest="psi_command", required=True)

    p = psi_sub.add_parser("gen", help="generate sets and incidence vectors")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--q1", type=float, default=0.5, help="inclusion probability for entity 1")
    p.add_argument("--q2", type=float, default=0.5, help="inclusion probability for entity 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_psi_gen)

    p = psi_sub.add_parser("run", help="run one intersection")
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--n1", type=int, default=2, help="databases of entity 1")
    p.add_argument("--n2", type=int, default=2, help="databases of entity 2")
    p.add_argument("--set1", help="set file for entity 1")
    p.add_argument("--set2", help="set file for entity 2")
    p.add_argument("--q1", type=float, default=0.5)
    p.add_argument("--q2", type=float, default=0.5)
    p.add_argument("--seed-sets", type=int, default=0)
    p.add_argument("--transport", choices=["sim", "tcp"], default="sim")
    p.add_argument("--seed-client", type=int, default=0)
    p.add_argument("--seed-cr", type=int, default=0)
    p.add_argument("--no-forward", action="store_true", help="skip forwarding the result")
    p.add_argument("--save-transcript", help="write the binary transcript here")
    p.add_argument("--connect", help="comma-separated host:port list of externally served databases")
    _add_common(p)
    p.set_defaults(func=cmd_psi_run)

    p = psi_sub.add_parser("serve", help="serve one entity's databases over TCP")
    p.add_argument("--set", required=True, help="set file")
    p.add_argument("--entity", type=int, default=2)
    p.add_argument("--n-databases", type=int, default=2)
    p.add_argument("--listen", default="127.0.0.1:0", help="host:base_port (0 = ephemeral)")
    p.add_argument("--pool-size", type=int, default=1024)
    p.add_argument("--seed-cr", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_psi_serve)

    p = psi_sub.add_parser("verify", help="re-check a saved transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--responder-set", help="set file enabling full answer replay")
    p.add_argument("--dump", action="store_true", help="print the text dump and exit")
    _add_common(p)
    p.set_defaults(func=cmd_psi_verify)

    p = sub.add_parser("audit", help="run exact privacy and reliability audits")
    p.add_argument("--scheme", choices=["table", "block"], required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--trials", type=int, default=50, help="reliability trials, at least 1")
    p.add_argument("--budget", type=int, default=audit_mod.DEFAULT_BUDGET,
                   help="atom budget of the exhaustive --scheme block audits")
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
    except audit_mod.AuditBudgetExceeded as exc:
        print(f"audit refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (wire.ProtocolFault, transport.InsufficientRandomness) as exc:
        print(f"protocol fault: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
