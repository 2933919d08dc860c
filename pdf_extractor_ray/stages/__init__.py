"""Ray Data stage callables.

Each stage is a function or callable class passed to
``Dataset.map_batches`` (``batch_format="pyarrow"`` throughout — zero-copy
from the object store). Stage order for the flagship pipeline
(SURVEY.md §7.1):

``normalize_route`` → ``extract_batch`` (one ``DocumentExtractor`` per
batch, stateless tasks) → ``validate_batch`` → the checkpointed sink,
whose writer stores each partition's ``partial_metrics`` row in the
partition's commit marker.

The hot extract+validate path is deliberately shuffle-free (HTML is always
extracted whole): chunk-splitting of oversized PDFs and chunk reassembly
happen *inside* the extractor UDF (all chunks of a document are created from
one input row, so they are already co-located — the reference needed
cross-task chunk fan-out only because one request was one document; a
corpus pipeline has millions of documents in flight, so intra-document
parallelism buys nothing at scale and the groupby-shuffle it would require
is pure cost).
"""

from .normalize import normalize_route
from .extract import DocumentExtractor
from .validate import validate_batch
