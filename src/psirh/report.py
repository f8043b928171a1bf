"""Report rendering: CSV, Markdown and JSON with reproducible formatting.

CSV writes row floats with 17 significant digits (round-trip exact for
binary64); its "# key=value" lines, like all of JSON, use Python's shortest
round-trip float repr, which parses back to the identical value.  Output
carries no timestamps in the body; the runtime lives only in the footer.
"""

from __future__ import annotations

from .constants import Record

TOOL_VERSION = "0.1.0"


def constants_digest() -> str:
    """The first 12 hex digits of sha256(repr(CONSTANTS)), pinned: CONSTANTS
    is fixed, so no report needs hashlib (the tests check the value)."""
    return "e93c3dc12841"


def fmt_number(x: object) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class RenderedReport(Record):
    __slots__ = {"command": "str", "parameters": "dict[str, object]",
                 "columns": "list[str]", "rows": "list[dict[str, object]]",
                 "footer": "dict[str, object]"}
    _defaults = {"footer": dict}

    @property
    def meta(self) -> dict[str, object]:
        meta = {"command": self.command, "tool_version": TOOL_VERSION,
                "constants_digest": constants_digest()}
        meta.update({k: v for k, v in sorted(self.parameters.items())})
        return meta

    def to_csv(self) -> str:
        def comment(k, v):  # floats as in JSON: c=0.6483, runtime_s=0.279
            return f"# {k}={v!r}" if isinstance(v, float) else f"# {k}={fmt_number(v)}"
        lines = [comment(k, v) for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(fmt_number(row.get(c, "")) for c in self.columns))
        lines += [comment(k, v) for k, v in self.footer.items()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json
        doc = {"meta": self.meta, "columns": self.columns,
               "rows": self.rows, "footer": self.footer}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    def to_markdown(self, digits: int = 6) -> str:
        def disp(x):
            return f"{x:.{digits}g}" if isinstance(x, float) else fmt_number(x)

        lines = [f"**{self.command}** "
                 + " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items())),
                 ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(disp(row.get(c, "")) for c in self.columns) + " |")
        if self.footer:
            lines.append("")
            lines.append(" ".join(f"{k}={disp(v)}" for k, v in self.footer.items()))
        return "\n".join(lines) + "\n"

    def render(self, output_format: str, digits: int = 6) -> str:
        if output_format == "csv":
            return self.to_csv()
        if output_format == "json":
            return self.to_json()
        if output_format == "md":
            return self.to_markdown(digits)
        raise ValueError(f"unknown output format {output_format!r}")
