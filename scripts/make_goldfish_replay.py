#!/usr/bin/env python3
"""Regenerate the bundled goldfish replay transcript.

Records one paraphrase exchange (base instruction -> the bundled
instruction list) and one keyword generation per instruction for the
query "do goldfish grow". Rows for instructions 8 and 10 carry the real
flan-t5-xxl generations this fixture preserves; the rest are synthetic.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from genqr.llm import write_transcript
from genqr.reformulate import PARAPHRASE_PROMPT, InstructionSet, query_prompts

QUERY = "do goldfish grow"

KEYWORDS = {
    1: "goldfish growth rate tank size lifespan",
    2: "how big do goldfish get common goldfish size",
    3: "goldfish size age tank conditions growth",
    4: "goldfish maximum length fancy goldfish growth chart",
    5: "do goldfish keep growing stunted growth myth",
    6: "goldfish adult size pond goldfish growth",
    7: "goldfish development juvenile growth aquarium care",
    8: "age goldfish grow outsmart outlive ageing species",
    9: "goldfish years size increase feeding growth",
    10: "Goldfish breed sizes What kind of goldfish grows the fastest",
}


def main() -> None:
    instructions = InstructionSet.default()
    rows = []

    paraphrase_response = "\n".join(
        f"{i}. {text}" for i, text in enumerate(instructions.paraphrases, start=2))
    rows.append({
        "prompt": f"{PARAPHRASE_PROMPT} {instructions.base}",
        "response": paraphrase_response,
    })
    for i, prompt in enumerate(query_prompts(QUERY, instructions.all(), None), start=1):
        rows.append({"prompt": prompt, "response": KEYWORDS[i]})

    out = Path(__file__).resolve().parents[1] / "src" / "genqr" / "data" / "replay"
    out.mkdir(parents=True, exist_ok=True)
    write_transcript(rows, out / "goldfish.jsonl")
    print(f"wrote {out / 'goldfish.jsonl'} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
