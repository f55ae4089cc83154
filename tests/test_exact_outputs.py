"""Byte-exact pipeline outputs on instances with fractional weights.

Each instance is an s-bounded generator instance (span 8, 150 steps)
whose weights are divided by 6, 35 or 11 according to the packet id,
so the weights share the common denominator 2310 and the runs take
simple and iterated leaps.  The four commands run end to end through
the CLI, and the SHA-256 of everything they write and print is pinned:
the planm trace, the greedy trace, the optimal schedule, the audit
ledger and the printed lines.
"""

import hashlib
from collections import Counter

import pytest
from click.testing import CliRunner

from planpack.cli import main
from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, save_instance, validate
from planpack.trace_io import load_trace

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
