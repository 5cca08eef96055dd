"""Byte-identity pins: SHA-256 of the trace text and of the exported chain
for the determinism golden suite, a hybrid fuzz run, a small run whose
request names hold non-ASCII and JSON-special characters, and one run per
byzantine vote stream: equivocate with skew (fuzz-24, clocked), reorder with
equivocate (fuzz-12, hybrid) and a silent corrupt leader under the race
policy (silent-race). Two hybrid fuzz runs at n=7 under the p=0.05 failure
wrapper have corrupt parties, so the wrapper's sweep must skip their
traffic: one reorders (fuzz-9+p0.05), two equivocate (fuzz-10+p0.05). The benchmark's scenarios, among them the deeper
segments runs and the clocked benign runs at n=10 and up, are pinned in
`perfbench/pinned.json` and checked by `tests/test_bench_pins.py`.

A refactor that keeps behaviour keeps every digest. A digest that changes
means a trace or a certificate changed, which has to be a deliberate
protocol change and comes with new pins.
"""

import dataclasses

import pytest

from fairlab.simnet.generators import benign_schedule, fuzz_scenario, probabilistic_adversary
from fairlab.simnet.runner import Simulation
from fairlab.simnet.scenario import BehaviorSpec

from conftest import sha256
from test_acceptance import CFG4, _golden_suite

# Escaped by the line encoding: non-ASCII (one astral, as a surrogate pair),
# quotes, backslashes, control characters and text that looks like JSON.
ODD_NAMES = [
    "caf\u00e9-\u00fc",
    'say "hi" \\ bye',
    '}, {"kind": "x"',
    "tab\tnl\n\x01 \u2603\U0001f600",
]


def _odd_names_scenario():
    base = dataclasses.replace(benign_schedule(CFG4, requests=4, seed=4), mode="clocked",
                               label="odd-names")
    rename = dict(zip(sorted(base.requests), ODD_NAMES))
    events = [{**e, "request": rename[e["request"]]} if "request" in e else e
              for e in base.events]
    return dataclasses.replace(
        base, requests={rename[name]: market for name, market in base.requests.items()},
        events=events)


def _silent_leader_scenario():
    # The race variant of the round-robin stall test's scenario: leader 0 is
    # corrupt and sends nothing, and leader 1 ships every block.
    return dataclasses.replace(
        benign_schedule(CFG4, requests=2, seed=9), label="silent-race", leaders=(0, 1),
        corrupt=(0,), behaviors={0: BehaviorSpec(kind="silent")})


def _scenarios():
    return _golden_suite() + [
        fuzz_scenario(3, n=4, t=1, mode="hybrid", r_max=3),
        _odd_names_scenario(),
        fuzz_scenario(24, n=7, t=2, mode="clocked"),
        fuzz_scenario(12, n=7, t=2, mode="hybrid", r_max=2),
        _silent_leader_scenario(),
    ] + [probabilistic_adversary(fuzz_scenario(seed, n=7, t=2, mode="hybrid", r_max=3), 0.05, seed)
         for seed in (9, 10)]


# label -> (trace sha256, chain sha256)
PINNED = {
    "cycle-n4": (
        "24c1793e5374c482a77843e54692c4a74f13307f5b3a4e6d989ed909a47852e0",
        "b536fd467decba04278a44102a69fc415a40e73e3a2a85a85c6901c2e242cbc5",
    ),
    "segments-k2": (
        "4de763294840fb1aa4ac28c8e54275805a4f23b9b579f7203be9c23198a9f760",
        "4700ce11bc63a0d0280b504d4f15c9a4ea8c3446c319e0e064956d5b18992434",
    ),
    "segments-k4": (
        "b36119b0dcec4995d7c433e06254d943390f8bd90527343cbae079eda569f618",
        "1e9a778d342a92aa6abf5e6df21be0b393e202e0c51cc5d6b9ce3fe47c016ddc",
    ),
    "benign-r4": (
        "a6818f03da45f4fc36a96ff702c38a570597d12b8a5d53d146021e27b26ac736",
        "b5aa6d4522867fcfaf3924f31cc28e6a9c0373fb3ad799379b3f650426e8176e",
    ),
    "segments-k2+p0.2": (
        "66e7b2e549f66adbb60ab0864a86769d01ec8112fac1c5037f393378ca854d45",
        "ea5a6e31a9bb37688c6be039f9a1737f72c871d13e2489aaa8e40f3a139a1bea",
    ),
    "fuzz-17": (
        "d9549d2dc99072e524ee5570940faf5aabc4489423adc755539b779762d6494a",
        "0a3a25e18ef7f5c63b27c11046b854833922948d8414d6ebeb86feacde5cc19f",
    ),
    "fuzz-3": (
        "72a70930a1e1eda9716e18accdfa719cc22792454d2b4470ca25d7b57c40ba9a",
        "18e5054bea4c8e3b32d916cd01ee5cd3f759b5fb513bdaa40fa895c06ab8a98b",
    ),
    "odd-names": (
        "c7b7f38cadec5755c6c389f4ec9aac53f49c1b17cd09fc7f9159c3aa326882e7",
        "84a3f0cfd82e0c10e43ee4861b5d65bcc4b21f38d351966c7e25023a753bf812",
    ),
    "fuzz-24": (
        "dc9c7bc18b16b657cc974a150925340429edafa3d2a969ad8da3f3b2374fca2c",
        "04d6a916dfc3859ff770b7af7c3fe09f5a0d4b08d4e904f060cc587ae49d8962",
    ),
    "fuzz-12": (
        "0133dac3d34f3e1dd05ee07ac17ae167c506daeee0b41c61f461ae240d164c95",
        "586e892b228760ccbd6088e42f89c1bda550062feda74306f4d0467f74ed8414",
    ),
    "silent-race": (
        "cd4d596c23aec3aebdee56b9a3f4dc17dfb2339820e64ff891713041937801b6",
        "36474749584b3f86bb95bf80bb779c9cdbf1c89fbbcf9507750bb03737dc1fbe",
    ),
    "fuzz-9+p0.05": (
        "05998df6fe5ac761a3b7a7bcc8c3a9322264a743504d474a07c99580609069d0",
        "548ede6c9e388e3ce38cdc3f7758aef2838b92514abbfb3a2fdd8b59a58ade49",
    ),
    "fuzz-10+p0.05": (
        "1f464307e19bc8cbc77cfb39ea5f412603f4614b4d9dbc7032287f8a556a508b",
        "ee8e09dfe279823a2bbd15e32eb2e199c08d3d71e31ef3c7dada5ea05c0ef3e8",
    ),
}


@pytest.mark.parametrize("scenario", _scenarios(), ids=lambda sc: sc.label)
def test_trace_and_chain_digests_pinned(scenario):
    sim = Simulation(scenario)
    trace = sim.run()
    digests = (sha256(trace.to_text()), sha256("\n".join(sim.chain_lines())))
    assert digests == PINNED[scenario.label]
