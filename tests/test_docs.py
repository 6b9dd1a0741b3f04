"""The documents name only formats the package writes and methods it has."""
import re
from pathlib import Path

from icolab import bell, causal, linalg, process, sampling, scenarios, switch

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
SCHEMA_TAG = re.compile(r"icolab/[a-z-]+/v\d+")
DOTTED = re.compile(r"\b([A-Z]\w*)\.([A-Za-z_]\w*)")
CLASSES = {
    name: obj
    for module in (bell, causal, linalg, process, sampling, scenarios, switch)
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__.startswith("icolab")
}
# the retired file formats of process matrices, behavior tables and lambda models
DELETED = ("to_json(", "from_json", "PROCESS_SCHEMA", "LAMBDA_SCHEMA")


def test_every_schema_tag_in_the_package_has_a_schemas_heading():
    in_code = {
        tag
        for path in (ROOT / "src" / "icolab").glob("*.py")
        for tag in SCHEMA_TAG.findall(path.read_text())
    }
    lines = (ROOT / "docs" / "schemas.md").read_text().splitlines()
    in_headings = {
        tag for line in lines if line.startswith("## ") for tag in SCHEMA_TAG.findall(line)
    }
    assert in_code
    assert in_code == in_headings


def test_documents_name_no_missing_method():
    for path in DOCUMENTS:
        text = path.read_text()
        for name in DELETED:
            assert name not in text, f"{path.name} names {name}"
        for cls, attr in DOTTED.findall(text):
            if cls in CLASSES:
                owner = CLASSES[cls]
                known = hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", {})
                assert known, f"{path.name} names {cls}.{attr}"
