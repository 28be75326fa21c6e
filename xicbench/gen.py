"""Seeded input generators for the xic benchmark.

Each generator writes one workload's inputs into a directory and returns
its ground truth: the verdict and violation counts every program must
report. The programs never see the seed -- only these files. The same
seed gives byte-identical files (tests.py checks this).

Request files use the xic/1 wire framing (see src/serve/protocol.h):

    requests.bin       distinct request frames, concatenated
    requests.schedule  one line per scheduled request: due_us conn frame_index

(trace.bin / trace.schedule hold the same for a CLI workload's traced run.)

A frame header may carry `schema=@K`; the client replaces `@K` with the
hash the daemon returned for `schema.put` of the workload's K-th schema
file (schema.xml, then session.xml), which is only known at run time.
"""

import json
import os
import random


def expect(structure, constraints, **extra):
    """One document's ground truth: its violation counts and the verdict
    xicbatch and xicd report for it."""
    verdict = ("invalid_structure" if structure else
               "constraint_violations" if constraints else "ok")
    return dict(extra, verdict=verdict, structure=structure,
                constraints=constraints)


# ---------------------------------------------------------------------------
# catalog_bulk: one large self-describing catalog (tools/gen_stream_doc.py
# shape): key book.isbn, sfk ref.to -> book.isbn, a seeded handful of
# dangling references.

CATALOG_PROLOG = """<?xml version="1.0"?>
<!DOCTYPE catalog [
<!ELEMENT catalog (book*)>
<!ELEMENT book (title, author*, ref)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST ref to NMTOKENS #REQUIRED>
<!-- xic:constraints
key book.isbn
sfk ref.to -> book.isbn
-->
]>
"""

# Every row has the same shape whatever the seed -- fixed-width isbns,
# title words and author names of one length each, authors and second
# references on a fixed pattern -- so a seed changes the document's
# content but not one byte offset. `xicheck --stream`'s peak RSS moves by
# up to ~15% when the same rows shift by a few bytes against its read
# chunks, so a varying layout would make that metric vary by seed.
WORDS = ("streaming", "validates", "foreignky", "documents", "schemaset",
         "extentlog", "tupleruns", "mergejoin", "spillfile", "automaton",
         "contentmd", "implicatn", "axiomatic", "pathqueri", "labelling")
NAMES = ("Ada Lovelace", "Alan Turing ", "Edgar Codd  ", "Grace Hopper",
         "S Abiteboul ", "Victor Vianu", "P. Buneman  ", "Wenfei Fan  ",
         "Leonid Libkn", "J. Simeon   ", "Dan Suciu   ", "Moshe Vardi ")

CATALOG_ROWS = 175_000  # ~24 MiB: under xicheck's 64 MiB default limit


def catalog_bulk(seed, out, trace=False, rows=CATALOG_ROWS):
    rng = random.Random(f"catalog_bulk/{seed}")
    dangling = set(rng.sample(range(2, rows + 1), rng.randint(3, 9)))
    with open(os.path.join(out, "catalog.xml"), "w", encoding="ascii",
              newline="\n") as f:
        f.write(CATALOG_PROLOG)
        f.write("<catalog>")
        chunk = []
        for n in range(1, rows + 1):
            title = " ".join(rng.choice(WORDS) for _ in range(3))
            authors = "".join(f"<author>{rng.choice(NAMES)}</author>"
                              for _ in range(n % 4))
            # A dangling ref keeps the row's width: its value starts "g".
            first = "g" if n in dangling else "i"
            if n % 4 == 0:
                to = (f"{first}{rng.randint(1, n - 1):06d} "
                      f"i{rng.randint(1, n - 1):06d}")
            else:
                to = f"{first}{max(n - 1, 1):06d}"
            chunk.append(f'<book isbn="i{n:06d}"><title>{title} {n}</title>'
                         f'{authors}<ref to="{to}"/></book>')
            if len(chunk) == 8192:
                f.write("".join(chunk))
                chunk = []
        f.write("".join(chunk))
        f.write("</catalog>\n")
    with open(os.path.join(out, "schema.xml"), "w", encoding="ascii",
              newline="\n") as f:
        f.write(CATALOG_PROLOG + "<catalog/>\n")
    docs = {"catalog.xml": expect(0, len(dangling))}
    lines = ["add root catalog"]
    for n in range(1, 41):
        v = 2 * n - 1
        lines += ["add 0 book", f"set {v} isbn s{n}", f"add {v} ref",
                  f"set {v + 1} to s{max(n - 1, 1)}"]
    if trace:
        trace_requests(out, rng, docs, lines,
                       ["key book.isbn", "key book.title", "key ref.to"])
    return {"workload": "catalog_bulk", "docs": docs}


# ---------------------------------------------------------------------------
# wide_batch: a corpus of mid-sized documents whose DTD has one record
# type over 64 Glushkov positions (96 optional fields in sequence) and one
# under 64 (12). A single key. Seeded documents are invalid, either
# structurally (two fields out of order) or by a duplicate key.

WIDE_FIELDS = 96
NARROW_FIELDS = 12
WIDE_DOCS = 240


def wide_prolog():
    wide = ", ".join(f"f{i:02d}?" for i in range(1, WIDE_FIELDS + 1))
    narrow = ", ".join(f"g{i:02d}?" for i in range(1, NARROW_FIELDS + 1))
    fields = "".join(f"<!ELEMENT f{i:02d} (#PCDATA)>\n"
                     for i in range(1, WIDE_FIELDS + 1))
    fields += "".join(f"<!ELEMENT g{i:02d} (#PCDATA)>\n"
                      for i in range(1, NARROW_FIELDS + 1))
    return ('<?xml version="1.0"?>\n<!DOCTYPE corpus [\n'
            "<!ELEMENT corpus (wide*, narrow*)>\n"
            f"<!ELEMENT wide ({wide})>\n<!ELEMENT narrow ({narrow})>\n"
            f"{fields}"
            "<!ATTLIST wide id CDATA #REQUIRED>\n"
            "<!ATTLIST narrow id CDATA #REQUIRED>\n"
            "<!-- xic:constraints\nkey wide.id\n-->\n]>\n")


def _record(rng, tag, prefix, count, rid, swap):
    present = [i for i in range(1, count + 1) if rng.random() < 0.6]
    if len(present) < 2:
        present = [1, count]
    if swap:
        a, b = sorted(rng.sample(range(len(present)), 2))
        present[a], present[b] = present[b], present[a]
    body = "".join(f"<{prefix}{i:02d}>v{rng.randint(0, 99999)}</{prefix}{i:02d}>"
                   for i in present)
    return f'<{tag} id="{rid}">{body}</{tag}>'


def wide_batch(seed, out, trace=False, docs=WIDE_DOCS):
    rng = random.Random(f"wide_batch/{seed}")
    prolog = wide_prolog()
    with open(os.path.join(out, "schema.xml"), "w", encoding="ascii",
              newline="\n") as f:
        f.write(prolog + "<corpus/>\n")
    os.makedirs(os.path.join(out, "docs"), exist_ok=True)
    truth = {}
    for d in range(docs):
        n_wide = rng.randint(20, 28)
        n_narrow = rng.randint(20, 28)
        bad_structure = rng.random() < 0.08
        bad_key = rng.random() < 0.08
        swap_at = rng.randrange(n_wide) if bad_structure else -1
        dup_at = rng.randint(1, n_wide - 1) if bad_key else -1
        parts = ["<corpus>"]
        for w in range(n_wide):
            rid = f"w{d}-{rng.randrange(w)}" if w == dup_at else f"w{d}-{w}"
            parts.append(_record(rng, "wide", "f", WIDE_FIELDS, rid,
                                 w == swap_at))
        for n in range(n_narrow):
            parts.append(_record(rng, "narrow", "g", NARROW_FIELDS,
                                 f"n{d}-{n}", False))
        parts.append("</corpus>\n")
        name = f"docs/d{d:03d}.xml"
        with open(os.path.join(out, name), "w", encoding="ascii",
                  newline="\n") as f:
            f.write("".join(parts))
        truth[name] = expect(int(bad_structure), int(bad_key))
    if trace:
        trace_requests(out, rng, truth, ["add root corpus"] + [
            line for n in range(1, 41)
            for line in ("add 0 wide", f"set {n} id s{n % 37}")],
            ["key wide.id", "key narrow.id", "key corpus.id"])
    # xicbatch validates its schema file as the corpus' first document.
    truth["schema.xml"] = expect(0, 0)
    return {"workload": "wide_batch", "docs": truth}


# ---------------------------------------------------------------------------
# xicd_mix: person/dept L_id documents in the shape of `xicbatch
# --generate`, served to an xicd daemon as an open-loop request mix.

DB_PROLOG = """<?xml version="1.0"?>
<!DOCTYPE db [
<!ELEMENT db (person*, dept*)>
<!ELEMENT person EMPTY>
<!ATTLIST person oid ID #REQUIRED name CDATA #REQUIRED
          in_dept IDREFS #REQUIRED>
<!ELEMENT dept EMPTY>
<!ATTLIST dept oid ID #REQUIRED has_staff IDREFS #REQUIRED>
<!-- xic:constraints language=L_id
  id person.oid
  id dept.oid
  key person.name
  sfk person.in_dept -> dept.oid
  sfk dept.has_staff -> person.oid
  inverse person.in_dept <-> dept.has_staff
-->
]>
"""

# Incremental sessions cannot maintain inverse constraints, so they run
# against the same DTD with the inverse left out.
SESSION_PROLOG = DB_PROLOG.replace(
    "  inverse person.in_dept <-> dept.has_staff\n", "")

XICD_RATE = 1000          # offered requests per second
XICD_CONNECTIONS = 2
XICD_POOL = 200           # distinct validate documents
SESSION_APPLIES = 8       # applies per session before it is reopened
IMPLY_POOL = 6
MIX = (("validate", 0.60), ("validate.self", 0.15),
       ("validate.stream", 0.10), ("session", 0.10), ("imply", 0.05))


def db_document(rng, tag):
    """A 2-3 KB db document; returns (xml, constraint violations)."""
    persons = rng.randint(34, 46)
    depts = rng.randint(4, 6)
    dangling = rng.randrange(persons) if rng.random() < 0.15 else -1
    dup_name = rng.randint(1, persons - 1) if rng.random() < 0.15 else -1
    staff = [[] for _ in range(depts)]
    parts = ["<db>"]
    for i in range(persons):
        name = f"n{tag}-{rng.randrange(i)}" if i == dup_name else f"n{tag}-{i}"
        if i == dangling:
            dept = "ghost"
        else:
            d = rng.randrange(depts)
            staff[d].append(f"p{tag}-{i}")
            dept = f"d{tag}-{d}"
        parts.append(f'<person oid="p{tag}-{i}" name="{name}" '
                     f'in_dept="{dept}"/>')
    for d in range(depts):
        parts.append(f'<dept oid="d{tag}-{d}" has_staff="{" ".join(staff[d])}"/>')
    parts.append("</db>")
    # A dangling in_dept breaks the sfk and the inverse: two violations.
    return "".join(parts), 2 * (dangling >= 0) + (dup_name >= 0)


def frame(verb, body, **headers):
    head = f"xic/1 {verb} {len(body.encode())}"
    for key, value in headers.items():
        head += f" {key}={value}"
    return head + "\n" + body


def imply_pool(rng, keys):
    """L_u implication queries over unary keys: implied iff in sigma."""
    pool = []
    for _ in range(IMPLY_POOL):
        sigma = sorted(set(rng.sample(keys, rng.randint(1, len(keys) - 1))))
        query = rng.choice(keys)
        body = "\n".join(sigma) + "\n?\n" + query + "\n"
        pool.append((frame("imply", body, lang="lu"),
                     {"verb": "imply", "implied": query in sigma}))
    return pool


def xicd_mix(seed, out, seconds):
    rng = random.Random(f"xicd_mix/{seed}")
    for name, prolog in (("schema.xml", DB_PROLOG),
                         ("session.xml", SESSION_PROLOG)):
        with open(os.path.join(out, name), "w", encoding="ascii",
                  newline="\n") as f:
            f.write(prolog + "<db/>\n")
    frames, truth, schedule = [], [], []

    def add_frame(data, truth_of):
        frames.append(data)
        truth.append(truth_of)
        return len(frames) - 1

    pool = []
    for i in range(XICD_POOL):
        xml, violations = db_document(rng, f"{seed % 1000}x{i}")
        truth_of = expect(0, violations, verb="validate")
        pool.append({
            "validate": add_frame(frame("validate", xml, schema="@0",
                                        id=f"v{i}"), truth_of),
            "validate.self": add_frame(frame("validate", DB_PROLOG + xml,
                                             id=f"s{i}"), truth_of),
            "validate.stream": add_frame(
                frame("validate.stream", xml, schema="@0", id=f"t{i}"),
                dict(truth_of, verb="validate.stream")),
        })
    keys = [f"key {t}.{a}" for t in ("person", "dept", "emp")
            for a in ("oid", "name")]
    imply = [add_frame(f, e) for f, e in imply_pool(rng, keys)]

    sessions = [{"n": 0, "applies": -1, "names": [], "vertices": 0}
                for _ in range(XICD_CONNECTIONS)]

    def session_frame(conn):
        s = sessions[conn]
        name = f"c{conn}s{s['n']}"
        if s["applies"] < 0:
            s.update(applies=0, names=[], vertices=0, violations=0)
            return add_frame(frame("session.open", "", schema="@1",
                                   session=name),
                             {"verb": "session.open"})
        if s["applies"] == SESSION_APPLIES:
            s["applies"] = -1
            s["n"] += 1
            return add_frame(frame("session.close", "", session=name),
                             {"verb": "session.close"})
        lines, replies = [], []
        dept = f"d{name}"
        if s["vertices"] == 0:
            # Root, one dept, and (below) a first person on its staff, so
            # that every sfk field is set and only key duplicates count.
            lines += ["add root db", "add 0 dept", f"set 1 oid {dept}"]
            replies += ["vertex 0", "vertex 1", "ok"]
            s["vertices"] = 2
        for _ in range(2):
            v = s["vertices"]
            s["vertices"] += 1
            person = f"{name}-{v}"
            if s["names"] and rng.random() < 0.2:
                pname = rng.choice(s["names"])
                s["violations"] += 1  # one more holder of a taken key
            else:
                pname = f"n{person}"
            s["names"].append(pname)
            lines += ["add 0 person", f"set {v} oid {person}",
                      f"set {v} name {pname}", f"set {v} in_dept {dept}"]
            replies += [f"vertex {v}", "ok", "ok", "ok"]
            if v == 2:
                lines.append(f"set 1 has_staff {person}")
                replies.append("ok")
        s["applies"] += 1
        replies.append(f"consistent {str(s['violations'] == 0).lower()} "
                       f"violations {s['violations']}")
        return add_frame(frame("session.apply", "\n".join(lines) + "\n",
                               session=name),
                         {"verb": "session.apply", "body": replies})

    total = XICD_RATE * seconds
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    for i in range(total):
        conn = i % XICD_CONNECTIONS
        kind = rng.choices(kinds, weights)[0]
        if kind == "session":
            index = session_frame(conn)
        elif kind == "imply":
            index = rng.choice(imply)
        else:
            index = pool[rng.randrange(XICD_POOL)][kind]
        schedule.append((i * 1_000_000 // XICD_RATE, conn, index))
    write_requests(out, frames, schedule)
    with open(os.path.join(out, "truth.json"), "w") as f:
        json.dump(truth, f)
    pool_violations = sum(truth[p["validate"]]["constraints"] for p in pool)
    return {"workload": "xicd_mix", "schedule": schedule, "truth": truth,
            "pool_violations": pool_violations}


def write_requests(out, frames, schedule, name="requests"):
    with open(os.path.join(out, name + ".bin"), "wb") as f:
        for data in frames:
            f.write(data.encode())
    with open(os.path.join(out, name + ".schedule"), "w") as f:
        for due, conn, index in schedule:
            f.write(f"{due} {conn} {index}\n")


def trace_requests(out, rng, docs, session_lines, keys):
    """Requests the traced run dispatches in process for a CLI workload:
    every document through validate and validate.stream, one
    incremental session replaying `session_lines`, and an imply pool
    sent twice (so the second round can hit the memo)."""
    frames = []
    for name in sorted(docs):
        with open(os.path.join(out, name), encoding="ascii") as f:
            xml = f.read()
        frames.append(frame("validate", xml, schema="@0"))
        frames.append(frame("validate.stream", xml, schema="@0"))
    frames.append(frame("session.open", "", schema="@0", session="t0"))
    for i in range(0, len(session_lines), 10):
        frames.append(frame("session.apply",
                            "\n".join(session_lines[i:i + 10]) + "\n",
                            session="t0"))
    frames.append(frame("session.close", "", session="t0"))
    pool = [f for f, _ in imply_pool(rng, keys)]
    frames += pool + pool
    write_requests(out, frames, [(0, 0, i) for i in range(len(frames))],
                   "trace")
