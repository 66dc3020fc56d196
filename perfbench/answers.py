"""Model responses with a known verdict: the gold answer, or a corruption of it.

Every corruption kind must score not-exact, so the benchmark can check the
scorer's verdict on each instance.  State and rule corruptions edit a copy of
the gold and serialize it with ``scoring.gold_response_text``; trace
corruptions edit the gold XML text, since that is all the trace gold holds.
"""
from __future__ import annotations

import copy
import random
import re
from dataclasses import replace

from implang import scoring
from implang.tasks import ERROR_WORD, TIMEOUT_WORD, TaskInstance

GOLD = "gold"
CORRUPTIONS = {
    "state": ("value", "drop", "extra", "malformed"),
    "rule": ("value", "drop", "extra", "malformed"),
    "trace": ("rule", "value", "drop", "malformed"),
}

_RULE = re.compile(r"<rule>(-?\d+)</rule>")
_VALUE = re.compile(r"<(\w+)>(-?\d+|true|false)</\1>")
_VALUE_TEXT = re.compile(r">(-?\d+|true|false|##\w+##)</")


def choose_kind(task: str, rng: random.Random) -> str:
    """Half the responses are gold, the rest one corruption kind each."""
    if rng.random() < 0.5:
        return GOLD
    return rng.choice(CORRUPTIONS[task])


def _bumped(value: str) -> str:
    if value in ("true", "false"):
        return "false" if value == "true" else "true"
    return str(int(value) + 1)


def _state_gold(gold: dict, kind: str, rng: random.Random) -> dict:
    gold = copy.deepcopy(gold)
    if gold["kind"] == "special":
        gold["word"] = ERROR_WORD if gold["word"] == TIMEOUT_WORD else TIMEOUT_WORD
        return gold
    state = gold["state"]
    name = rng.choice(sorted(state))
    if kind == "value":
        state[name] = _bumped(state[name])
    elif kind == "drop":
        del state[name]
    else:
        state["zz_extra"] = "0"
    return gold


def _rule_gold(gold: dict, kind: str, rng: random.Random) -> dict:
    gold = copy.deepcopy(gold)
    question = rng.choice(gold["questions"])
    rules = question["gold"]
    if kind == "value":
        j = rng.randrange(len(rules))
        rules[j] += 1
    elif kind == "drop":
        rules.pop()
    else:
        rules.append(rules[-1])
    return gold


def _corrupt_trace(xml: str, kind: str, rng: random.Random) -> str:
    if kind == "rule":
        match = rng.choice(list(_RULE.finditer(xml)))
        return f"{xml[:match.start(1)]}{int(match.group(1)) + 1}{xml[match.end(1):]}"
    if kind == "value":
        # The last step holds every variable the program declared.
        block = xml.rfind("<program_state>")
        match = rng.choice(list(_VALUE.finditer(xml, block)))
        return f"{xml[:match.start(2)]}{_bumped(match.group(2))}{xml[match.end(2):]}"
    start = xml.rfind("    <step>")
    end = xml.rfind("    </step>\n") + len("    </step>\n")
    return xml[:start] + xml[end:]


def response_text(inst: TaskInstance, kind: str, rng: random.Random) -> str:
    """Response of the given kind for ``inst``: GOLD or one of
    CORRUPTIONS[inst.task]."""
    if kind == GOLD:
        return scoring.gold_response_text(inst)
    if kind == "malformed":
        # A non-integer last value: the scorer still parses the whole answer,
        # so a malformed response costs about as much as any other.
        text = scoring.gold_response_text(inst)
        tail = len(text) - 256
        last = list(_VALUE_TEXT.finditer(text, max(0, tail)))[-1]
        return f"{text[:last.end(1)]}?{text[last.end(1):]}"
    if inst.task == "state":
        return scoring.gold_response_text(replace(inst, gold=_state_gold(inst.gold, kind, rng)))
    if inst.task == "rule":
        return scoring.gold_response_text(replace(inst, gold=_rule_gold(inst.gold, kind, rng)))
    return _corrupt_trace(inst.gold["xml"], kind, rng)
