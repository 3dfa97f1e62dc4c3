"""The CLI's surface pinned: every subcommand's flags, and every output's
payload and manifest for fixed argv (apart from `created`/`timings`).

The expected values are the CLI's recorded behaviour; a change to one of
them changes a file format or an option, and must be deliberate.
"""

import hashlib
import json
import shutil
from pathlib import Path

from kxp.cli import build_parser, main

DATA = Path(__file__).parent.parent / "data"

# per subcommand: the positionals in order, and each option's strings,
# default, required flag, choices and type
FLAGS = {
    'quantize': {
        'positionals': ['csv'],
        'q': [['--q'], 5, False, None, 'int'],
        'force': [['--force'], False, False, None, None],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out_prefix': [['--out-prefix'], None, True, None, None],
    },
    'mine': {
        'positionals': ['dataset'],
        'max_size': [['--max-size'], 5, False, None, 'int'],
        'min_support': [['--min-support'], 1, False, None, 'int'],
        'max_rules': [['--max-rules'], None, False, None, 'int'],
        'time_budget': [['--time-budget'], None, False, None, 'float'],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out': [['--out'], None, True, None, None],
    },
    'xval-rules': {
        'positionals': ['csv'],
        'k': [['--k'], 5, False, None, 'int'],
        'seed': [['--seed'], 0, False, None, 'int'],
        'q': [['--q'], 5, False, None, 'int'],
        'force': [['--force'], False, False, None, None],
        'max_size': [['--max-size'], 5, False, None, 'int'],
        'min_support': [['--min-support'], 1, False, None, 'int'],
        'max_rules': [['--max-rules'], None, False, None, 'int'],
        'time_budget': [['--time-budget'], None, False, None, 'float'],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out': [['--out'], None, True, None, None],
    },
    'explain': {
        'positionals': ['model', 'dataset'],
        'kind': [['--kind'], 'axp', False, ['axp', 'cxp'], None],
        'knowledge': [['--knowledge'], None, False, None, None],
        'enum': [['--enum'], 20, False, None, 'int'],
        'instances': [['--instances'], 'all', False, None, None],
        'split_fraction': [['--split-fraction'], 0.8, False, None, 'float'],
        'split_seed': [['--split-seed'], 0, False, None, 'int'],
        'compare': [['--compare'], False, False, None, None],
        'jobs': [['--jobs'], 1, False, None, 'int'],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out': [['--out'], None, True, None, None],
        'summary': [['--summary'], None, False, None, None],
    },
    'attribute': {
        'positionals': ['model', 'dataset'],
        'instance': [['--instance'], None, True, None, 'int'],
        'knowledge': [['--knowledge'], None, True, None, None],
        'axp': [['--axp'], 'auto', False, None, None],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out': [['--out'], None, True, None, None],
    },
    'assess': {
        'positionals': ['model', 'dataset', 'explanations'],
        'kind': [['--kind'], 'axp', False, ['axp', 'cxp'], None],
        'knowledge': [['--knowledge'], None, False, None, None],
        'class_column': [['--class-column'], 'last', False, None, None],
        'out': [['--out'], None, True, None, None],
    },
}

# manifest seeds and limits of every output file
MANIFESTS = {
    'assess.json': {'command': 'assess', 'limits': {'kind': 'axp'}, 'seeds': {}},
    'assess_cxp.json': {'command': 'assess', 'limits': {'kind': 'cxp'}, 'seeds': {}},
    'attr.json': {'command': 'attribute',
                  'limits': {'axp': 'auto', 'instance': 4},
                  'seeds': {}},
    'bt.jsonl': {'command': 'explain',
                 'limits': {'compare': False,
                            'enum': 2,
                            'instances': 'test',
                            'jobs': 1,
                            'kind': 'axp'},
                 'seeds': {'split_seed': 3}},
    'bt_summary.json': {'command': 'explain',
                        'limits': {'compare': False,
                                   'enum': 2,
                                   'instances': 'test',
                                   'jobs': 1,
                                   'kind': 'axp'},
                        'seeds': {'split_seed': 3}},
    'expl.jsonl': {'command': 'explain',
                   'limits': {'compare': True,
                              'enum': 3,
                              'instances': 'all',
                              'jobs': 1,
                              'kind': 'cxp'},
                   'seeds': {'split_seed': 0}},
    'expl.jsonl.summary.json': {'command': 'explain',
                                'limits': {'compare': True,
                                           'enum': 3,
                                           'instances': 'all',
                                           'jobs': 1,
                                           'kind': 'cxp'},
                                'seeds': {'split_seed': 0}},
    'quant.qspec.json': {'command': 'quantize',
                         'limits': {'force': False, 'q': 4},
                         'seeds': {}},
    'rules.jsonl': {'command': 'mine',
                    'limits': {'max_rules': None,
                               'max_size': 2,
                               'min_support': 1,
                               'time_budget': None},
                    'seeds': {}},
    'xval.json': {'command': 'xval-rules',
                  'limits': {'k': 3,
                             'max_rules': None,
                             'max_size': 2,
                             'min_support': 1,
                             'q': 5,
                             'time_budget': None},
                  'seeds': {'fold_seed': 0}},
    'xval_num.json': {'command': 'xval-rules',
                      'limits': {'k': 2,
                                 'max_rules': None,
                                 'max_size': 2,
                                 'min_support': 1,
                                 'q': 4,
                                 'time_budget': 60.0},
                      'seeds': {'fold_seed': 5}},
}

# sha256 of each output's canonical JSON (sorted keys, `created`/`timings`
# dropped), line by line for JSONL files and the CSV text for `quantize`.
# The `explain` records were re-pinned once when they lost `calls`; the
# records before, with `calls` dropped, gave the same digests.
DIGESTS = {
    'assess.json': 'dc18cca66e02168907f3adf3422b2dc84f2021240b9311418782b21f636339c4',
    'assess_cxp.json': 'b7b376a2bda7dfd57cb9318d3a65ca532d4902685a0700845c6887aeaa69be9a',
    'attr.json': 'f4300e0a68c0c0b9ea96a33f38d4eacfc5838b8be242b65fe9b50749190b0589',
    'bt.jsonl': 'e86db5d4e432ef580476dd43eae08197b19f6a78fd68ccfe444766f8d070bacf',
    'bt_summary.json': '1219f6244e39bde2595d263a13461e81008eba49e88936e0381c4912d44cebf5',
    'expl.jsonl': 'a867a38fd92cee95e2b0d96c1dcac284e6db6ee4d55c2afbb717a4a2c0cdd593',
    'expl.jsonl.summary.json': '8c18db94fb6cf2b0830e9345ae04692885ca7f0d19d2b0f380111db34ee9a547',
    'quant.csv': '22602f09921a4c6ad671b8ff58cab3ee9568eb2ba4ebe8f168fe30da655e474a',
    'quant.qspec.json': '3e9ca4acd248c9cfa9ae44b6af2a87c7b06508e89a870e1b7bf1ceb5a1cc891b',
    'rules.jsonl': 'f85886fcb0aab6025e351370650d1c56e5d63b8d1bf95366d482b144659bfc6e',
    'xval.json': 'f17a861415b19dc69d72258af052369eca60fb5404488082f713d6375d2d3cb0',
    'xval_num.json': '7675879c2ad8d1e6465221a8f4549f1d51b5071fac09a59276bd16ab8676f071',
}


def parser_flags() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    flags = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.dest != "help"]
        flags[name] = {"positionals": [a.dest for a in actions if not a.option_strings]}
        for a in actions:
            if a.option_strings:
                flags[name][a.dest] = [a.option_strings, a.default, a.required,
                                       None if a.choices is None else list(a.choices),
                                       None if a.type is None else a.type.__name__]
    return flags


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in ("created", "timings")}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def canonical(obj) -> str:
    return json.dumps(strip_volatile(obj), sort_keys=True)


def run_outputs(workdir: Path) -> dict:
    """Run every subcommand in `workdir` (relative paths, so the recorded
    argv and input names are fixed) and read back each output file."""
    for name in ("adult_toy.csv", "adult_toy_dl.json", "adult_toy_bt.json",
                 "adult_small_dl.json"):
        shutil.copy(DATA / name, workdir / name)
    rows = ["num,cat,Y"] + ["%f,%s,%s" % (i * 1.5, "ab"[i % 2], "yn"[(i // 2) % 2])
                            for i in range(40)]
    (workdir / "numeric.csv").write_text("\n".join(rows) + "\n")
    (workdir / "subsets.json").write_text(json.dumps({
        "format": "kxp.subsets/1",
        "records": [{"index": 0, "features": ["Education", "Status", "Occupation",
                                              "Relationship"]},
                    {"index": 4, "features": ["Relationship", "Sex"]},
                    {"index": 2, "features": []}]}))
    runs = [
        ["quantize", "numeric.csv", "--q", "4", "--out-prefix", "quant"],
        ["mine", "adult_toy.csv", "--max-size", "2", "--out", "rules.jsonl"],
        ["xval-rules", "adult_toy.csv", "--k", "3", "--max-size", "2",
         "--out", "xval.json"],
        ["xval-rules", "numeric.csv", "--k", "2", "--q", "4", "--seed", "5",
         "--max-size", "2", "--time-budget", "60", "--out", "xval_num.json"],
        ["explain", "adult_toy_dl.json", "adult_toy.csv", "--kind", "cxp",
         "--knowledge", "knowledge.jsonl", "--compare", "--enum", "3",
         "--out", "expl.jsonl"],
        ["explain", "adult_toy_bt.json", "adult_toy.csv", "--instances", "test",
         "--split-seed", "3", "--split-fraction", "0.5", "--enum", "2",
         "--out", "bt.jsonl", "--summary", "bt_summary.json"],
        ["attribute", "adult_small_dl.json", "adult_toy.csv", "--instance", "4",
         "--knowledge", "knowledge.jsonl", "--out", "attr.json"],
        ["assess", "adult_small_dl.json", "adult_toy.csv", "subsets.json",
         "--knowledge", "knowledge.jsonl", "--out", "assess.json"],
        ["assess", "adult_toy_dl.json", "adult_toy.csv", "subsets.json",
         "--kind", "cxp", "--out", "assess_cxp.json"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        if argv[0] == "mine" and argv[-1] == "rules.jsonl":
            # the same rules without the manifest, whose `created` would
            # change the input hashes of the commands that read them
            header, *lines = (workdir / "rules.jsonl").read_text().splitlines(True)
            header = json.loads(header)
            del header["manifest"]
            (workdir / "knowledge.jsonl").write_text(json.dumps(header) + "\n"
                                                     + "".join(lines))
    outputs = {"quant.csv": [(workdir / "quant.csv").read_text()]}
    for name in ("quant.qspec.json", "xval.json", "xval_num.json",
                 "expl.jsonl.summary.json", "bt_summary.json", "attr.json",
                 "assess.json", "assess_cxp.json"):
        outputs[name] = [json.loads((workdir / name).read_text())]
    for name in ("rules.jsonl", "expl.jsonl", "bt.jsonl"):
        outputs[name] = [json.loads(line) for line in
                         (workdir / name).read_text().splitlines()]
    return outputs


def manifests(outputs: dict) -> dict:
    out = {}
    for name, docs in outputs.items():
        if isinstance(docs[0], dict):
            m = docs[0]["manifest"]
            out[name] = {"command": m["command"], "seeds": m["seeds"],
                         "limits": m["limits"]}
    return out


def digests(outputs: dict) -> dict:
    return {name: hashlib.sha256("\n".join(
        d if isinstance(d, str) else canonical(d) for d in docs).encode()).hexdigest()
        for name, docs in outputs.items()}


def test_subcommand_flags_are_pinned():
    assert parser_flags() == FLAGS


def test_outputs_and_manifests_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = run_outputs(tmp_path)
    assert manifests(outputs) == MANIFESTS
    assert digests(outputs) == DIGESTS
