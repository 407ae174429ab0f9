"""`lagext extend` on every exported catalog row, pinned by one digest.

Each non-suspect row of `catalog export`, at its first parameter sample, is
extended with the zero cocycle and with `--cocycle random:7 --cohomology`.
The exit codes and outputs of the 134 invocations hash to one sha256, so a
change to the bracket table of an extension or to its serialization shows
on every row, not only on `l_26`.
"""

import hashlib

from click.testing import CliRunner

from lagext.catalog import sample_parameters, table1_entries
from lagext.cli import main
from lagext.specfile import parse_spec

SOURCES = (("--cocycle", "zero"), ("--cocycle", "random:7", "--cohomology"))
EXPECTED = "4c3366fe44cb48421a49d1c87ba581514e71c5f6f43e4e6c3f02880379764db7"


def test_extend_output_on_every_exported_row_is_pinned(tmp_path):
    runner = CliRunner()
    output = runner.invoke(main, ["catalog", "export"]).output
    blocks = {parse_spec(b).name: b for b in output.split("\n\n") if "algebra " in b}
    digest = hashlib.sha256()
    invocations = 0
    for entry in table1_entries():
        if entry.suspect:
            continue
        path = tmp_path / f"{entry.label}.spec"
        path.write_text(blocks[entry.label])
        sample = sample_parameters(entry, 1)[0]
        settings = [arg for name, value in sample.values for arg in ("--set", f"{name}={value}")]
        for source in SOURCES:
            result = runner.invoke(main, ["extend", str(path), *settings, *source])
            text = result.output.replace(str(path), entry.label)
            digest.update(f"{entry.label} {' '.join(source)} {result.exit_code}\n{text}".encode())
            invocations += 1
    assert invocations == 134
    assert digest.hexdigest() == EXPECTED
