"""File writers and readers that only the tests need.

write_corpus makes the TSV files that corpus.load_corpus reads, and
parse_report and read_report parse a report written by
evaluation.render_report and evaluation.write_report.
"""

from dialectid.corpus import HEADER
from dialectid.errors import MalformedRow
from dialectid.evaluation import ClassMetrics, EvaluationReport


def write_corpus(records, path):
    """Write records as a four-column TSV with a header row.

    Fields must not contain tab or newline characters; the format has no
    escaping, so such a record would not survive a round trip.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(HEADER) + "\n")
        for record in records:
            cells = [record.id, record.text, record.country or "", record.province or ""]
            for value in cells:
                if "\t" in value or "\n" in value or "\r" in value:
                    raise MalformedRow(
                        f"record {record.id!r}: fields may not contain tabs or newlines"
                    )
            fh.write("\t".join(cells) + "\n")


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return parse_report(fh.read())


def parse_report(text):
    """The EvaluationReport of a report rendered by
    evaluation.render_report, every float bit for bit."""
    per_class = []
    aggregates = {}
    section = None
    for line in text.splitlines():
        if not line:
            continue
        if line == "# per-class":
            section = "per-class"
            continue
        if line == "# aggregate":
            section = "aggregate"
            continue
        if section == "per-class":
            cells = line.split("\t")
            if cells[0] == "label":
                continue
            if len(cells) != 5:
                raise ValueError(f"bad per-class line: {line!r}")
            per_class.append(
                ClassMetrics(
                    label=cells[0],
                    precision=float(cells[1]),
                    recall=float(cells[2]),
                    f1=float(cells[3]),
                    support=int(cells[4]),
                )
            )
        elif section == "aggregate":
            key, sep, value = line.partition("\t")
            if not sep:
                raise ValueError(f"bad aggregate line: {line!r}")
            aggregates[key] = value
        else:
            raise ValueError(f"line outside any section: {line!r}")
    return EvaluationReport(
        per_class=tuple(per_class),
        macro_precision=float(aggregates["macro_precision"]),
        macro_recall=float(aggregates["macro_recall"]),
        macro_f1=float(aggregates["macro_f1"]),
        weighted_f1=float(aggregates["weighted_f1"]),
        accuracy=float(aggregates["accuracy"]),
        total=int(aggregates["total"]),
    )
