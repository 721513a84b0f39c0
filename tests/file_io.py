"""File writers and readers that only the tests need.

write_corpus makes the TSV files that corpus.load_corpus reads, and
read_report parses a report.txt written by evaluation.write_report.
"""

from dialectid.corpus import HEADER
from dialectid.errors import MalformedRow
from dialectid.evaluation import parse_report


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
