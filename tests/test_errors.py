import pickle

from deathcast import errors
from deathcast.errors import DeathcastError, MalformedRecord


def test_every_error_survives_pickling():
    """Errors raised in worker processes reach the CLI through pickle."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, DeathcastError)]
    assert len(classes) > 10
    for cls in classes:
        exc = cls(3, "bad token") if cls is MalformedRecord else cls("bad token")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
    assert pickle.loads(pickle.dumps(MalformedRecord(3, "x"))).line_no == 3
