"""Single edits as one-op batches: on a page file each is one logged tape
(``[OPS, DELTA, COMMIT]``), where calling the scheme's method directly
commits without a tape, which a page file makes a checkpoint."""

from repro import BatchOp


def insert_before(scheme, lid):
    return scheme.execute_batch([BatchOp("insert_before", (lid,))]).results[0]


def insert_element_before(scheme, lid):
    return scheme.execute_batch([BatchOp("insert_element_before", (lid,))]).results[0]


def delete(scheme, lid):
    scheme.execute_batch([BatchOp("delete", (lid,))])
