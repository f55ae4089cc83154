"""Byte-exact pipeline outputs on instances with fractional weights, on
small instances that reach the verifier's rarer branches, on a long,
nearly idle horizon, and on a gap of 10^5 idle slots.

Each fractional instance is an s-bounded generator instance (span 8, 150 steps)
whose weights are divided by 6, 35 or 11 according to the packet id,
so the weights share the common denominator 2310 and the runs take
simple and iterated leaps.  The four commands run end to end through
the CLI, and the SHA-256 of everything they write and print is pinned:
the planm trace, the greedy trace, the optimal schedule, the audit
ledger and the printed lines.  A phi-adversarial instance pins ledgers
whose reduced denominators are hundreds of digits long.  One digest
covers the in-process outputs of a corpus of 100 small generator
instances.
"""

import csv
import hashlib
import io
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from planpack.cli import main, write_ledger
from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, save_instance, validate
from planpack.offline import Schedule, format_schedule, optimal_schedule
from planpack.schedulers import run
from planpack.trace_io import format_trace, load_trace
from planpack.verifier import verify_trace

DENOMINATORS = (6, 35, 11)

# seed -> sha256 of (planm trace, greedy trace, schedule, ledger, stdout)
PINS = {
    2: (
        "0b8523368552f15db06b38d5a4c0ee9b4a5008994971882439075b55308a3143",
        "8ff1100abdba961f1e5b9c9cc5a929ce79d232b16dae189ccb54ffd746712370",
        "ff6d62f03c35f0cc4966eabcb5f5713d988b5b897906bbab12080bf201fbf9ac",
        "68de797a2b8b7d03f49f68467ae0b3ff436f2ab21dd064d4ca977a1302435e37",
        "2a477809ca466d66562fb9e7f0cf5d922499c8fd96677e006657fe1bb5139b4d",
    ),
    3: (
        "c8481c7761bb1275334e0236abd5da6d93ec342048e7365b48322d75cef59b77",
        "382e75f03f084fa16c8bc204ec4e6fd0e994301c5894a5ac411a85a9fbf213a2",
        "2518f805dc60641a30dbc0ea951b5e051ad0991e81d6d8582c247da68c2ecf0a",
        "e0588f499511777609f9fdf982f69044f82d5da808012f1a08cfc2ee6e4f00e8",
        "58b80064831f8501bfb35bc175ba1afe03334d39325f0696d2e5ff96c69198de",
    ),
    5: (
        "965158998ba2d85797c95d970dc71cc05af6ac80ab3b75f8f66997b10961f810",
        "1a5da7c5120079bbf41ef6ad1e1438ee75be39201009c7c50973bbe6f8c47783",
        "9383cb6a622075649727fb4ca3172e1dbc9ea11bbba44190752c820a59f68f4a",
        "389768c6f9e5f9419959e580ba2991cab843edd1d1e0a79fe125a8b20e3856a1",
        "687fbaef82e16768bcf6a9f2f1f34c08fcde8681fda1b837f74a482f6e85dfab",
    ),
}


def mixed_instance(seed: int):
    base = generate(GeneratorConfig("s-bounded", 150, seed=seed, span=8))
    return validate(
        Packet(p.id, p.release, p.deadline, p.weight / DENOMINATORS[p.id % 3])
        for p in base.packets
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline(instance, tmp_path):
    """Run simulate (planm and greedy), opt and verify on the instance;
    returns the digests in PINS order and the planm trace."""
    inst = tmp_path / "instance.jsonl"
    save_instance(instance, str(inst))
    files = {name: tmp_path / name for name in ("planm.trace", "greedy.trace",
                                                "opt.sched", "ledger.csv")}
    commands = [
        ["simulate", "--instance", str(inst), "--algorithm", "planm",
         "--trace", str(files["planm.trace"])],
        ["simulate", "--instance", str(inst), "--algorithm", "greedy",
         "--trace", str(files["greedy.trace"])],
        ["opt", "--instance", str(inst), "--out", str(files["opt.sched"])],
        ["verify", "--instance", str(inst), "--trace", str(files["planm.trace"]),
         "--comparison", str(files["opt.sched"]), "--out", str(files["ledger.csv"])],
    ]
    runner = CliRunner()
    printed = []
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        printed.append(result.output)
    digests = tuple(_sha(path.read_bytes()) for path in files.values())
    digests += (_sha("".join(printed).encode("utf-8")),)
    return digests, load_trace(str(files["planm.trace"]))


@pytest.mark.parametrize("seed", sorted(PINS))
def test_outputs_match_pins(seed, tmp_path):
    digests, trace = pipeline(mixed_instance(seed), tmp_path)
    kinds = Counter(getattr(ev, "kind", "arrival") for ev in trace.events)
    assert kinds["simple-leap"] > 0 and kinds["iterated-leap"] > 0
    assert digests == PINS[seed]


# (family, steps, seed) -> (kind, case, detail fragment) of a ledger row
# the run must reach, and the digests in PINS order.  The instances have
# 4 packets per step and weights up to 20, s-bounded ones span 4; they
# pin the verifier's rarer branches: an arrival evicting a claimed plan
# packet (A.2(i)), a placeholder popped at an idle slot, an arrival that
# furloughs its evictee and releases another furlough (A.2.b), and the
# leap cases the fractional runs above may miss: a middle group with a
# bump (M.i), a leap whose first segment releases a claimed packet
# (L.InSeg(i)), a three-anchor window with two M.ii groups, and a
# first segment that swaps its lightest packet for a furlough
# (L.InSeg.2).
BRANCH_PINS = {
    ("uniform-random", 20, 3): (
        ("arrival", "A.2", "unclaimed via"),
        (
            "abfc127156cdb40106c7907f1b51dea3badb9eb6f5c99c4b6855de496f3b78a2",
            "9d361a39fcba24b80ce0e02d20abb06007ecbe0f4e07709b7e2cc27531a2a339",
            "e7e6a3bec116dc04c9a66a76dacd852dfaeb7abb7cc8f925aac74aafce7da6ed",
            "25b1dc8df7c53aa54de37160d873a590975f608a8ba7ac9dfcf72b4b62e4469a",
            "ea72bf820df3023494e47f33a80bc096c8a49de426aee2239c5c41e33c6838da",
        ),
    ),
    ("uniform-random", 8, 44): (
        ("idle", "ADV.2", ""),
        (
            "59b121b337c0f4101d06a53bcf295a91e63d11969686e2bd08daada2ce4591b5",
            "c622966882d6173140c35decb3bb3972b33abe1b8f62315670fbe056e2a1b221",
            "cbfe062dfa446e6ac3268a20cbd2f0adabd4754c19949850893a3f97e947a3e3",
            "065aee2aec2a10dd9e81917d8b3253f05309de4b41a11ef8a1394353570317f2",
            "a97acf973d81fe7c52f144214cc998903394ec17a070056fcd152ca4537d0d9f",
        ),
    ),
    ("uniform-random", 8, 0): (
        ("arrival", "A.2.b", "released"),
        (
            "aa18d7b129f6cd40ab3fc39b70eee10a1433efa78af345a880f6d878a496c89a",
            "773074f641ab600d3e34b242871a59839b020a4a40f7e36dbfa64a848d11def5",
            "72faa53cd1d67feefc5b0ee4d961fc31e7eef79bc15fdd8538d412d1557742b9",
            "45e64ad700f752f0c8990f9d3ccd089a6af57143d13bed5ae6e093c41c2beed0",
            "5d9c024916faedc191516d9259ea6e21c369407098e3429610da1e49e316e23f",
        ),
    ),    ("s-bounded", 20, 7): (
        ("iterated-leap", "L.I.2",
         "T[1,1] g=30 f=virtual M.i[0,0] f=virtual anchors=[0, 1]"),
        (
            "ad601e2e66026d243e54a60ee2039fa4d52eb0a5844791b8bad65c3672647b9f",
            "ababe44884abd49a42f6c43382267aae9fe28b15f19947b09ebb4e6668e4e997",
            "cca236a709448e71f6fbb0fd201ba2a2b124085346e9f18ca54f8fa2ff46d97a",
            "fa6f6dfb49389e54f202a8074a3fa6b53d1656a88a2c72d997d85efd3e755820",
            "a8e06c1a5f3b51be421887af04f59988301c288cee1fbabad0261b557bdcf7da",
        ),
    ),
    ("s-bounded", 20, 13): (
        ("simple-leap", "L.S.2", "ell-unclaimed via virtual L.InSeg.1"),
        (
            "bfab92dd10e138bcaed25169f7d47c262b9652fb91c10f3868eb55c5654d9447",
            "61e900aa3cb914473223794091ff5bb30a175c37d210e4fb975d3c4c8f049542",
            "5eb76a3e29f50e868d7f1a620141ae8d2c1454011c27ef5060fcd58ea615c504",
            "e032947bf43fa832650ed60b9c7c730e161dbcb94d9d03303a7e2c4b0b2c3cda",
            "e742865ae45ba7f8af98568285e6e8127104c1ca4fd03e01ded8f188e881c59f",
        ),
    ),
    ("s-bounded", 40, 58): (
        ("iterated-leap", "L.I.2",
         "T[2,2] g=68 f=67 M.ii[1,1] -> 68 M.ii[0,0] -> 69 anchors=[0, 1, 2]"),
        (
            "f39f34d14a0ec82cf2246136bc2af9b65b0d08a82440d3ea6b6eceb00382c791",
            "d8346cb0ff1b42c7397aa3df278eea652df7fec01e2cd748e1463347d9c5559e",
            "c802f797a103a72a7cfcc962c641788df2f8a0ba6193ce25e792601c582f3b9f",
            "2ade7fb423bc3e90875878dfcfb101d16bb88a4d9396eaefdb2069bc44d89c8d",
            "defa9f7ad053bdfb26e1eb8fe2baaad62951b78a4c7272399bc6eb93c60ff064",
        ),
    ),
    ("s-bounded", 40, 158): (
        ("simple-leap", "L.S.2", "L.InSeg.2 T[0,0] g=53 f=virtual anchors=[0]"),
        (
            "2ad3cdd7bdfc27b34c968fdd98d5c44446186f1570c9de1aed96f1401738b9f2",
            "6eb6a508712248914874d82751cd14929062f62fe3c8656b1b693b01bd7e44bb",
            "6804efc85289dfb77f01f5b9d2c54541c05cbe6465e32e88e16ba89a3b6b2ed1",
            "435016707558ed62102486e1329bc66894dc783338f846a0136e04b9ece25ae2",
            "fe295302aa40bab86d2ff5cf6199dde9936803336e569cbfcc07cf1173cef68c",
        ),
    ),
}


@pytest.mark.parametrize("family, steps, seed", sorted(BRANCH_PINS))
def test_rare_branch_outputs_match_pins(family, steps, seed, tmp_path):
    instance = generate(GeneratorConfig(
        family, steps, seed=seed, packets_per_step=4, weight_max=20, span=4
    ))
    digests, _ = pipeline(instance, tmp_path)
    (kind, case, fragment), pins = BRANCH_PINS[family, steps, seed]
    with open(tmp_path / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert any(
        row["kind"] == kind and row["case"].startswith(case)
        and fragment in row["detail"]
        for row in rows
    )
    assert digests == pins


LONG_HORIZON = 10**4

# sha256 of (planm trace, schedule, ledger) for the long-horizon instance
LONG_HORIZON_PINS = (
    "4763aec0f713113112b2ea2db9bdb715338815460d30a12ce45b157923511d1a",
    "092de9117f750b080dfb658e8120580e6a0fabd251dc4f8f4f246a7c8647442e",
    "1d580d1bcfbe8b1421d33e984231a478bc87043b11673bd241577ca0b219174a",
)


def test_long_horizon_outputs_match_pins(tmp_path):
    """Three packets, deadlines up to 10^4: the plan's slack profile must
    not cost per empty slot, and the outputs stay byte-identical."""
    inst = tmp_path / "instance.jsonl"
    save_instance(validate([
        Packet(1, 0, LONG_HORIZON, Fraction(3)),
        Packet(2, 0, 5, Fraction(2)),
        Packet(3, 1, LONG_HORIZON, Fraction(1)),
    ]), str(inst))
    files = [tmp_path / name for name in ("planm.trace", "opt.sched", "ledger.csv")]
    commands = [
        ["simulate", "--instance", str(inst), "--trace", str(files[0])],
        ["opt", "--instance", str(inst), "--out", str(files[1])],
        ["verify", "--instance", str(inst), "--trace", str(files[0]),
         "--comparison", str(files[1]), "--out", str(files[2])],
    ]
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert tuple(_sha(path.read_bytes()) for path in files) == LONG_HORIZON_PINS


GAP = 10**5

# sha256 of (planm trace, schedule, ledger against the optimum, ledger
# against a comparison that sends packet 2 in the middle of the gap)
GAP_PINS = (
    "a2784ef184c730a6ada636b6b5569b10dd853e45eff61be7573263f7f0999f94",
    "b33530682841fc85f6b558d9c74f4b86bb94a4766ff391118c05845ba7177a0b",
    "1f152481f621469a8657e03aff83acb007a526cb4e7836fb41659a3c68e2abd0",
    "baf0c1e6ac11c85f8c567807093ae8ee1f0ed95a452bc6456bc996dd0c15a06c",
)


def test_long_gap_outputs_match_pins(tmp_path):
    """Three packets, then nothing pending for 10^5 slots, then two more.
    The run and the audit hold the gap as one idle stretch; the files
    keep one line or row per slot, byte for byte."""
    inst = tmp_path / "instance.jsonl"
    save_instance(validate([
        Packet(1, 0, 0, Fraction(5)),
        Packet(2, 0, GAP, Fraction(3)),
        Packet(3, 1, 1, Fraction(2)),
        Packet(4, GAP + 3, GAP + 5, Fraction(4)),
        Packet(5, GAP + 3, GAP + 3, Fraction(1)),
    ]), str(inst))
    middle = tmp_path / "middle.sched"
    middle.write_text(format_schedule(Schedule(
        assignment={0: 1, 1: 3, GAP // 2: 2, GAP + 3: 5, GAP + 4: 4}, weight0=Fraction(15),
    )))
    files = [tmp_path / name for name in ("planm.trace", "opt.sched", "opt.csv", "middle.csv")]
    commands = [
        ["simulate", "--instance", str(inst), "--trace", str(files[0])],
        ["opt", "--instance", str(inst), "--out", str(files[1])],
        ["verify", "--instance", str(inst), "--trace", str(files[0]),
         "--comparison", str(files[1]), "--out", str(files[2])],
        ["verify", "--instance", str(inst), "--trace", str(files[0]),
         "--comparison", str(middle), "--out", str(files[3])],
    ]
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert result.output.startswith(f"ok: {GAP + 11} events")
    assert tuple(_sha(path.read_bytes()) for path in files) == GAP_PINS
    trace = load_trace(str(files[0]))
    idle = [ev for ev in trace.events if getattr(ev, "kind", None) == "idle"]
    assert [(ev.t, ev.slots) for ev in idle] == [(3, GAP), (GAP + 5, 1)]
    with open(files[3], newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["kind"] == "idle"]
    assert len(rows) == GAP + 1
    assert [row["time"] for row in rows if row["case"] == "ADV.2"] == [str(GAP // 2)]


PHI_EPOCHS = 60

# digests in PINS order for the phi-adversarial instance of PHI_EPOCHS
# epochs
PHI_PINS = (
    "6c2b0463e18f9a6b58c5938f8df5a45edf538552d221bdbebadef7cf9edaffed",
    "a354f60729cd571887afcd992b318161ce29e6f721f8f79f6cbfe53d2d375e68",
    "983601f3b7202b8f0ab8d4859c8826775edefc5a043529425e6967f95226f938",
    "226db7a0712c263a1fa208e174636aec0deb31541464fc57aa22db3dee645528",
    "61953d5c5bcfb4a7471493d273daa7f5591bea238762cacc8a3174b49bc59bad",
)


def test_big_denominator_outputs_match_pins(tmp_path):
    """Weights (987/610)**i: the common denominator has 168 digits, so
    the ledger's reduced cells carry denominators hundreds of digits
    long."""
    instance = generate(GeneratorConfig("phi-adversarial", PHI_EPOCHS))
    assert len(str(instance.scale.denominator)) > 100
    digests, _ = pipeline(instance, tmp_path)
    assert digests == PHI_PINS


# generator settings of the digest corpus, seeds 0-19 each
CORPUS = (
    dict(kind="uniform-random", steps=30),
    dict(kind="uniform-random", steps=60, packets_per_step=3, weight_max=20),
    dict(kind="s-bounded", steps=40, span=4, weight_max=20),
    dict(kind="s-bounded", steps=40, span=8),
    dict(kind="agreeable", steps=40, weight_max=20),
)

CORPUS_PIN = "86be2439985a948052d97b522e83506f9401376dee6cc6ec303685f3cfc4042a"


def test_corpus_digest():
    """One SHA-256 over the planm trace (with the monotonicity monitor),
    the greedy trace, the optimal schedule and the audit ledger of every
    corpus instance, all produced in process."""
    digest = hashlib.sha256()
    for setting in CORPUS:
        for seed in range(20):
            instance = generate(GeneratorConfig(seed=seed, **setting))
            _, planm = run("planm", instance, check_monotonicity=True)
            _, greedy = run("greedy", instance)
            schedule = optimal_schedule(instance)
            ledger = io.StringIO()
            write_ledger(verify_trace(instance, planm, schedule), ledger)
            for text in (format_trace(planm), format_trace(greedy),
                         format_schedule(schedule), ledger.getvalue()):
                digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == CORPUS_PIN
