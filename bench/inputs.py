"""Seeded inputs for the benchmark workloads.

Everything here is a function of ``(seed, size)`` alone: the same pair
gives byte-identical files.  The generator also keeps the facts the checks
need and that the program never sees: which record each reference entry
cites, which saved search each record was planted to match, and how many
entries each reference section holds.  The usage log is written as a
stream and is regenerated from its own seed by the checks, so its events
are never held in memory.

Generated text is plain ASCII, so no input reaches the record format's
line-splitting or the log's decoding faults.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DAY = 86_400
# Alert clock of the last set-up step; every harvest round advances it a day.
T0 = 1_136_073_600
# Planted occurrences of a keyword search's tracer term, more than any topic
# term reaches, so the tracer always makes the top ten.
TRACER_OCCURRENCES = 40

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_PSEUDO_WORD = re.compile(r"^(?:[bdfgklmnprtvz][aeiou]){2,3}$")
_FILLERS = tuple(
    w
    for w in (
        "the of and we in a with for to is are this that on by as from at an be our "
        "these results model study approach method show find obtain consider present "
        "analysis case order limit new two first given here which its both then while "
        "further recent known general simple precise leading correction effect"
    ).split()
    if not _PSEUDO_WORD.match(w)
)
_INITIALS = "BCDEFGHJKLMNPRSTVW"  # no "A.": "A. A." would read as the alias "A A"

# Alias forms of the journals in the packaged knowledge base, as citations
# write them.  Every form normalizes to its canonical title.
JOURNAL_FORMS = {
    "Astron. Astrophys.": ("Astron. Astrophys.", "A & A", "A A", "AAL", "A&A"),
    "ACM Comput. Surv.": ("ACM Comput. Surv.", "ACM Computing Surveys"),
    "ACM SIGPLAN Not.": ("ACM SIGPLAN Not.", "ACM SIGPLAN Notices", "ACM SN"),
    "IEEE J. Quantum Electron.": ("IEEE J. Quantum Electron.", "IJQE"),
    "J. High Energy Phys.": ("J. High Energy Phys.", "JHEP"),
    "New Sci.": ("New Sci.", "New Scientist"),
    "Phys. Rev., A": ("Phys. Rev., A", "Phys. Rev. A", "Physical Review A", "PRA"),
}
_JOURNALS = tuple(JOURNAL_FORMS)
_OLD_ARCHIVES = ("hep-th", "hep-ph", "gr-qc", "astro-ph", "nucl-th", "math.AG")
_INSTITUTES = ("CERN-TH", "CERN-PH-EP", "DESY", "SLAC-PUB", "FERMILAB-PUB")


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload."""

    preload: int  # records in the store before the timed part (harvest)
    batch: int  # records per harvested batch; the whole collection for backfile
    rounds: int  # batches per cycle
    basic_terms: int
    composite_terms: int
    topics: int
    sentences: int  # body sentences per full text
    references: int  # mean entries per reference section
    events_per_record: int
    searches: int  # saved searches
    deliveries: int  # planted (search, record) matches per batch
    late: int  # of those, deliveries to late-arriving records (harvest)


SIZES = {
    ("harvest", "full"): Size(200, 8, 3, 600, 80, 30, 200, 20, 30, 80, 4, 2),
    ("backfile", "full"): Size(0, 500, 1, 600, 80, 30, 200, 20, 50, 80, 30, 0),
    ("harvest", "tiny"): Size(40, 6, 2, 60, 8, 4, 8, 6, 10, 8, 3, 1),
    ("backfile", "tiny"): Size(0, 50, 1, 60, 8, 4, 8, 6, 10, 8, 5, 0),
}


@dataclass
class Term:
    term_id: str
    pref: str
    alts: list[str] = field(default_factory=list)
    broader: str | None = None
    composite: tuple[str, str] | None = None


@dataclass
class Search:
    """A saved search and the tracer token that makes records match it."""

    kind: str  # author | title | author_year | keyword
    tracer: str
    clauses: tuple[str, ...]
    first_year: int = 0  # of the 5-year range, for author_year


@dataclass
class Record:
    record_id: str
    title: str
    authors: list[str]
    year: int
    journal: str | None
    volume: str | None
    page: str | None
    report_number: str | None
    ingest_time: int
    topic: int
    round: int  # 0 = pre-load (or the backfile collection), r >= 1 = harvest batch r
    late: bool = False
    searches: list[int] = field(default_factory=list)  # planted matches
    keyword_tracer: str | None = None
    citations: list[str] = field(default_factory=list)  # resolvable cited ids, in entry order
    entries: int = 0  # reference entries in the full text


@dataclass
class Inputs:
    workload: str
    seed: int
    size: Size
    terms: list[Term]
    topics: list[list[str]]  # term ids per topic
    searches: list[Search]
    records: list[Record]
    log_seed: int
    recommend_targets: list[str]
    window: tuple[int, int]  # download report window

    def batch(self, r: int) -> list[Record]:
        return [rec for rec in self.records if rec.round == r]


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    while len(words) < n:
        words.add("".join(rng.choice(syllables) for _ in range(rng.choice((2, 2, 3)))))
    return sorted(words)


def _code(i: int, letters: str = "abcdefghijklmnopqr") -> str:
    """Three-letter code; distinct codes are never substrings of each other."""
    base = len(letters)
    return letters[i // base // base % base] + letters[i // base % base] + letters[i % base]


def _taxonomy(rng: random.Random, size: Size) -> tuple[list[Term], list[list[str]]]:
    words = _pseudo_words(rng, size.basic_terms * 2)
    phrases: set[str] = set()

    def new_phrase() -> str:
        while True:
            n = rng.choices((1, 2, 3), (4, 4, 2))[0]
            parts = [rng.choice(words) for _ in range(n)]
            if n == 2 and rng.random() < 0.1:
                parts = ["-".join(parts)]
            phrase = " ".join(parts)
            if phrase not in phrases:
                phrases.add(phrase)
                return phrase

    terms: list[Term] = []
    for i in range(size.basic_terms):
        term = Term(f"t{i:04d}", new_phrase())
        if rng.random() < 0.3:
            term.alts = [new_phrase() for _ in range(rng.choice((1, 2)))]
        if i >= 20:
            term.broader = terms[rng.randrange(i)].term_id
        terms.append(term)
    topics = [
        [t.term_id for t in rng.sample(terms, min(12, len(terms)))] for _ in range(size.topics)
    ]
    by_id = {t.term_id: t for t in terms}
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < size.composite_terms:
        a, b = sorted(rng.sample(rng.choice(topics), 2))
        pairs.add((a, b))
    for j, (a, b) in enumerate(sorted(pairs)):
        terms.append(Term(f"c{j:04d}", f"{by_id[a].pref}, {by_id[b].pref}", composite=(a, b)))
    return terms, topics


def taxonomy_text(terms: list[Term]) -> str:
    blocks = []
    for t in terms:
        lines = [f"term: {t.term_id}", f"pref: {t.pref}"]
        lines += [f"alt: {a}" for a in t.alts]
        if t.broader:
            lines.append(f"broader: {t.broader}")
        if t.composite:
            lines.append(f"composite: {t.composite[0]} + {t.composite[1]}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _searches(rng: random.Random, size: Size) -> list[Search]:
    kinds = ("author", "title", "author_year", "keyword")
    searches = []
    for i in range(size.searches):
        kind = kinds[i % 4]
        code = _code(i)
        if kind == "author":
            tracer = "xya" + code
            clauses = (f"author:contains:{tracer}",)
        elif kind == "title":
            tracer = "xyt" + code
            clauses = (f"title:contains:{tracer}",)
        elif kind == "author_year":
            tracer = "xyy" + code
            lo = rng.randint(1990, 2000)
            clauses = (f"author:contains:{tracer}", f"year:range:{lo}..{lo + 4}")
        else:
            tracer = "xyk" + code
            clauses = (f"keyword:equals:{tracer}",)
        searches.append(Search(kind, tracer, clauses, lo if kind == "author_year" else 0))
    return searches


def _author(rng: random.Random, words: list[str]) -> str:
    return f"{rng.choice(_INITIALS)}. {rng.choice(words).capitalize()}"


def _page(rng: random.Random) -> str:
    # pages inside [1800, 2100] would read as years
    return str(rng.choice((rng.randint(1, 1799), rng.randint(2101, 9999))))


def generate(seed: int, workload: str, size_name: str = "full") -> Inputs:
    """Records, saved searches and taxonomy of one workload; files are written later."""
    size = SIZES[(workload, size_name)]
    # One controlled vocabulary for every seed, as a repository has; the
    # seed varies the records, texts, searches and usage.
    terms, topics = _taxonomy(random.Random(f"taxonomy:{size_name}"), size)
    rng = random.Random(f"{workload}:{seed}")
    searches = _searches(rng, size)
    name_words = _pseudo_words(rng, 400)

    rounds = size.rounds if workload == "harvest" else 0
    plan = [(0, size.preload if workload == "harvest" else size.batch)]
    plan += [(r, size.batch) for r in range(1, rounds + 1)]

    records: list[Record] = []
    triples: set[tuple[str, str, str]] = set()
    reports: set[str] = set()
    for r, count in plan:
        for _ in range(count):
            i = len(records)
            journal = volume = page = None
            if rng.random() < 0.6:
                while True:
                    triple = (rng.choice(_JOURNALS), str(rng.randint(1, 120)), _page(rng))
                    if triple not in triples:
                        triples.add(triple)
                        journal, volume, page = triple
                        break
            report = None
            if rng.random() < 0.85:
                report = _report_number(rng, reports)
            if r == 0:
                ingest = T0 - DAY * 365 + i * 60 if workload == "harvest" else T0 + 1 + i
            else:
                ingest = T0 + (r - 1) * DAY + 1 + (i % DAY)
            topic = rng.randrange(len(topics))
            title_words = [w for t in rng.sample(topics[topic], 3) for w in _term(terms, t).pref.split()]
            title = " ".join(title_words[:6]).replace("-", " ").title()
            records.append(
                Record(
                    record_id=f"r{i:06d}",
                    title=title,
                    authors=[_author(rng, name_words) for _ in range(rng.randint(1, 4))],
                    year=rng.randint(1990, 2006),
                    journal=journal,
                    volume=volume,
                    page=page,
                    report_number=report,
                    ingest_time=ingest,
                    topic=topic,
                    round=r,
                )
            )

    _plant_matches(rng, size, workload, searches, records)
    return Inputs(
        workload=workload,
        seed=seed,
        size=size,
        terms=terms,
        topics=topics,
        searches=searches,
        records=records,
        log_seed=rng.randrange(2**32),
        recommend_targets=[rec.record_id for rec in records[:3]],
        window=(T0 - 200 * DAY, T0 - 20 * DAY),
    )


def _term(terms: list[Term], term_id: str) -> Term:
    return terms[int(term_id[1:])]


def _report_number(rng: random.Random, taken: set[str]) -> str:
    """A new report number in old-arXiv, new-arXiv or institutional style."""
    while True:
        style = rng.random()
        if style < 0.4:
            rn = f"{rng.choice(_OLD_ARCHIVES)}/{rng.randint(0, 6):02d}{rng.randint(1, 12):02d}{rng.randint(1, 999):03d}"
        elif style < 0.75:
            rn = f"{rng.randint(7, 15):02d}{rng.randint(1, 12):02d}.{rng.randint(1, 99999):05d}"
        else:
            rn = f"{rng.choice(_INSTITUTES)}-{rng.randint(1995, 2006)}-{rng.randint(1, 999):03d}"
        if rn not in taken:
            taken.add(rn)
            return rn


def _plant_matches(
    rng: random.Random, size: Size, workload: str, searches: list[Search], records: list[Record]
) -> None:
    """Give chosen records the tracers of chosen searches.

    Each batch gets exactly ``size.deliveries`` (search, record) matches,
    ``size.late`` of them on late records; decoys carry an author tracer of a
    year-range search with a year outside the range and must not match.
    """
    batches = [0] if workload == "backfile" else range(1, size.rounds + 1)
    for r in batches:
        batch = [rec for rec in records if rec.round == r]
        chosen = rng.sample(batch, size.deliveries)
        for k, rec in enumerate(chosen):
            if k < size.late:
                rec.late = True
                rec.ingest_time = T0 + (r - 1) * DAY - DAY - 17 * (k + 1)
            _plant(rng, rec, rng.randrange(len(searches)), searches)
        decoys = [rec for rec in batch if not rec.searches][:2]
        for rec in decoys:
            search = rng.choice([s for s in searches if s.kind == "author_year"])
            rec.year = search.first_year - 1 - rng.randint(0, 3)
            rec.authors.append(f"Q. {search.tracer.capitalize()}")
    if workload == "harvest":
        # matches that predate every subscription, so are never delivered
        for rec in rng.sample([rec for rec in records if rec.round == 0], min(10, size.preload)):
            _plant(rng, rec, rng.randrange(len(searches)), searches, record_match=False)


def _plant(
    rng: random.Random, rec: Record, j: int, searches: list[Search], record_match: bool = True
) -> None:
    search = searches[j]
    if search.kind == "keyword" and rec.keyword_tracer is not None:
        j = (j + 1) % len(searches)  # one tracer term per full text
        search = searches[j]
    if search.kind in ("author", "author_year"):
        rec.authors.append(f"Q. {search.tracer.capitalize()}")
        if search.kind == "author_year":
            rec.year = rng.randint(search.first_year, search.first_year + 4)
    elif search.kind == "title":
        rec.title = f"{rec.title} {search.tracer.capitalize()}"
    else:
        rec.keyword_tracer = search.tracer
    if record_match:
        rec.searches.append(j)


def tracer_terms(searches: list[Search]) -> list[Term]:
    return [
        Term(f"k{i:04d}", s.tracer) for i, s in enumerate(searches) if s.kind == "keyword"
    ]


def record_text(rec: Record) -> str:
    lines = [f"id: {rec.record_id}", f"title: {rec.title}"]
    lines += [f"author: {a}" for a in rec.authors]
    lines.append(f"year: {rec.year}")
    if rec.journal is not None:
        lines += [f"journal: {rec.journal}", f"volume: {rec.volume}", f"page: {rec.page}"]
    if rec.report_number is not None:
        lines.append(f"report_number: {rec.report_number}")
    lines += [f"fulltext: ft/{rec.record_id}.txt", f"ingest_time: {rec.ingest_time}"]
    return "\n".join(lines) + "\n"


# --- full texts ------------------------------------------------------------


def _mention(rng: random.Random, term: Term) -> str:
    label = term.pref if not term.alts or rng.random() < 0.7 else rng.choice(term.alts)
    if rng.random() < 0.15:
        label += "s"  # plural form; the stemmer strips it again
    if rng.random() < 0.1:
        label = label.title()
    return label


def _body(rng: random.Random, inputs: Inputs, rec: Record, topics_terms: list[Term]) -> list[str]:
    size = inputs.size
    weights = [1.0 / (k + 1) for k in range(len(topics_terms))]
    basic = [t for t in inputs.terms if t.composite is None]
    tracer_left = TRACER_OCCURRENCES if rec.keyword_tracer else 0
    sentences = []
    for s in range(size.sentences):
        words = [rng.choice(_FILLERS) for _ in range(rng.randint(5, 12))]
        for _ in range(rng.choice((0, 1, 1, 2))):
            term = rng.choices(topics_terms, weights)[0] if rng.random() < 0.85 else rng.choice(basic)
            words.insert(rng.randrange(len(words) + 1), _mention(rng, term))
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words) + 1), f"{rng.randint(1, 9)}.{rng.randint(0, 99)}")
        share = -(-tracer_left // (size.sentences - s))
        for _ in range(share):
            words.insert(rng.randrange(len(words) + 1), rec.keyword_tracer)
        tracer_left -= share
        sentence = " ".join(words)
        sentences.append(sentence[0].upper() + sentence[1:] + rng.choice(".....?!"))
    paragraphs = []
    for k in range(0, len(sentences), 5):
        paragraphs.append(" ".join(sentences[k:k + 5]))
    return paragraphs


def _wrap(text: str, width: int = 90) -> list[str]:
    """Break at spaces, never before a token a marker pattern could read."""
    lines = []
    current = ""
    for tok in text.split(" "):
        if current and len(current) + 1 + len(tok) > width and tok[:1].isalpha():
            lines.append(current)
            current = tok
        else:
            current = f"{current} {tok}" if current else tok
    lines.append(current)
    return lines


def fulltext(inputs: Inputs, rec: Record, rng: random.Random) -> str:
    """Title, body and a reference section citing older records."""
    topic_terms = [_term(inputs.terms, t) for t in inputs.topics[rec.topic]]
    parts = [rec.title, ""]
    for para in _body(rng, inputs, rec, topic_terms):
        parts.extend(_wrap(para))
        parts.append("")
    if rng.random() < 0.03:
        rec.entries = 0
        return "\n".join(parts) + "\n"

    older = inputs.records[: int(rec.record_id[1:])]
    # at least three: without a heading, a shorter marker run is not a section
    n_entries = max(3, inputs.size.references + rng.randint(-4, 4))
    entries: list[str] = []
    for _ in range(n_entries):
        entries.append(_entry(rng, rec, older))
    rec.entries = len(entries)

    heading = rng.random() < 0.9
    style = rng.choices(("bracket", "dotted", "paren"), (7, 2, 1))[0] if heading else "bracket"
    if heading:
        parts.append(rng.choice(("References", "REFERENCES", "Bibliography", "7. References")))
        parts.append("")
    for k, entry in enumerate(entries, start=1):
        marker = {"bracket": f"[{k}]", "dotted": f"{k}.", "paren": f"({k})"}[style]
        lines = _wrap(f"{marker} {entry}") if heading else [f"{marker} {entry}"]
        parts.append(lines[0])
        parts.extend("    " + line for line in lines[1:])
    return "\n".join(parts) + "\n"


def _authors_text(rng: random.Random, names: list[str]) -> str:
    names = [n for n in names if not n.startswith("Q. Xy")] or names
    if len(names) > 3:
        return f"{names[0]} et al."
    return " and ".join(names) if len(names) < 3 else f"{names[0]}, {names[1]} and {names[2]}"


def _entry(rng: random.Random, rec: Record, older: list[Record]) -> str:
    """One reference entry; resolvable ones are recorded on ``rec.citations``."""
    roll = rng.random()
    if older and roll < 0.8:
        target = older[int(len(older) * rng.random() ** 1.2)]  # skewed toward the oldest
        if rng.random() < 0.05 and rec.report_number is not None:
            target = rec  # self-citation: resolves, but never becomes an edge
        authors = _authors_text(rng, target.authors)
        by_report = target.report_number is not None and (target.journal is None or roll < 0.45)
        if by_report:
            rn = target.report_number
            if re.match(r"\d{4}\.\d{5}$", rn):
                rn = rng.choice((f"arXiv:{rn}", f"arXiv:{rn}v{rng.randint(1, 3)} [hep-th]", rn))
            text = f"{authors}, {rn}."
            if target.journal is not None and rng.random() < 0.3:
                text = f"{authors}, {rng.choice(JOURNAL_FORMS[target.journal])} {target.volume} ({target.year}) {target.page} [{rn}]."
        elif target.journal is not None:
            form = rng.choice(JOURNAL_FORMS[target.journal])
            layout = rng.randrange(3)
            if layout == 0:
                text = f"{authors}, {form} {target.volume} ({target.year}) {target.page}."
            elif layout == 1:
                text = f"{authors}, {form} {target.volume}, {target.page} ({target.year})."
            else:
                end = int(target.page) + rng.randint(1, 30)
                if 1800 <= end <= 2100:  # a range ending there would read as the year
                    end = int(target.page)
                text = f'{authors}, "{target.title}", {form} {target.volume} ({target.year}) {target.page}-{end}.'
        else:
            return _unresolvable(rng)
        rec.citations.append(target.record_id)
        return text
    return _unresolvable(rng)


def _unresolvable(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(("Private communication.", "In preparation.", "Unpublished notes."))
    if kind == 1:
        return f"{_author(rng, ['Borami', 'Lunaze'])}, Gauge Methods, Springer, Berlin ({rng.randint(1960, 2005)})."
    if kind == 2:
        # a report number of the unused 99xx block, which no record carries
        return f"{_author(rng, ['Kerova'])}, hep-ex/99{rng.randint(0, 99):02d}{rng.randint(0, 999):03d}."
    if kind == 3:
        return f"{_author(rng, ['Tilemo'])}, Nucl. Phys. B {rng.randint(100, 800)} ({rng.randint(1980, 2005)}) {rng.randint(1, 999)}."
    # a known journal, but a volume no stored record has
    return f"{_author(rng, ['Vadune'])}, {rng.choice(JOURNAL_FORMS['New Sci.'])} {rng.randint(500, 900)} ({rng.randint(1980, 2005)}) {rng.randint(1, 999)}."


# --- usage log -------------------------------------------------------------


def log_lines(inputs: Inputs):
    """Yield the usage log, one TSV line per event, from the log's own seed."""
    rng = random.Random(inputs.log_seed)
    ids = [
        rec.record_id
        for rec in inputs.records
        if rec.round == 0
    ]
    order = ids[:3] + rng.sample(ids[3:], len(ids) - 3)  # recommend targets lead
    weights = [1.0 / (k + 1) ** 0.9 for k in range(len(order))]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)
    visitors = [f"v{k:07d}" for k in range(max(20, len(ids) * 2))]
    n_events = len(ids) * inputs.size.events_per_record
    start = T0 - 365 * DAY
    for _ in range(n_events):
        rid = order[_bisect(cum, rng.random() * total)]
        visitor = visitors[int(len(visitors) * rng.random() ** 2)]
        action = "view" if rng.random() < 0.75 else "download"
        yield f"{start + rng.randrange(365 * DAY)}\t{visitor}\t{rid}\t{action}\n"


def _bisect(cum: list[float], x: float) -> int:
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


# --- writing ---------------------------------------------------------------


def full_texts(inputs: Inputs):
    """Yield (record, full text) in record order.

    Generating a text fills in its record's cited ids and entry count, so
    the checks need the texts generated even where the files are not written.
    """
    rng = random.Random(f"text:{inputs.workload}:{inputs.seed}")
    for rec in inputs.records:
        yield rec, fulltext(inputs, rec, rng)


def input_paths(inputs: Inputs, root: Path) -> dict[str, Path]:
    """Where ``write_files`` puts the taxonomy, the usage log and each batch's record file."""
    paths = {"taxonomy": root / "in" / "taxonomy.tax", "log": root / "in" / "usage.log"}
    for r in sorted({rec.round for rec in inputs.records}):
        paths[f"batch-{r}"] = root / "in" / f"batch-{r}.rec"
    return paths


def write_files(inputs: Inputs, root: Path) -> dict[str, Path]:
    """Write taxonomy, record files, full texts and the usage log under ``root``.

    Full texts go to ``<root>/store/ft`` so record ``fulltext`` paths resolve
    in the store; record files go to ``<root>/in/batch-<r>.rec``.
    """
    ft = root / "store" / "ft"
    ft.mkdir(parents=True)
    (root / "in").mkdir()
    paths = input_paths(inputs, root)
    paths["taxonomy"].write_text(
        taxonomy_text(inputs.terms + tracer_terms(inputs.searches)), encoding="ascii"
    )
    by_round: dict[int, list[str]] = {}
    for rec, text in full_texts(inputs):
        (ft / f"{rec.record_id}.txt").write_text(text, encoding="ascii")
        by_round.setdefault(rec.round, []).append(record_text(rec))
    for r, blocks in by_round.items():
        paths[f"batch-{r}"].write_text("%%\n".join(blocks), encoding="ascii")
    with open(paths["log"], "w", encoding="ascii") as fh:
        fh.writelines(log_lines(inputs))
    return paths
