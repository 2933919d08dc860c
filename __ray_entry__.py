"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extract→merge→validate pipeline over pages
synthesized from the sf0.001 documents table; ``queries()`` exposes one
callable per implemented operator/pipeline (SURVEY.md §2 +
corpus-scale ops); ``oracle_sql()`` gives the DuckDB-equivalent SQL for
every SQL-expressible query (names and column names match exactly).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: documents → boilerplate-wrapped pages
    (every 3rd as toy-PDF binary) → normalize/route → extraction as
    stateless ``extract_batch`` tasks → validate/repair. Returns the result
    Dataset (lazy; the caller consumes it)."""
    from pdf_extractor_ray.pipelines.extract import extraction_pipeline
    from pdf_extractor_ray.queries import wrap_documents_as_pages

    pages = wrap_documents_as_pages(SF_SMOKE, pdf_every=3)
    return extraction_pipeline(pages)


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented pipeline/operator; each callable takes
    ``sf_dir`` and returns a Dataset / pandas DataFrame / pyarrow Table."""
    from pdf_extractor_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query (omitted for the non-SQL-expressible
    sketch/ANN-approximate ops — driver records rows-only checks there)."""
    from pdf_extractor_ray.queries import ORACLE_SQL

    return {name: sql for name, sql in ORACLE_SQL.items() if sql is not None}
