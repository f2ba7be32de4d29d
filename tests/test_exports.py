import mmi_lab
from mmi_lab import pipeline


def test_export_lists_resolve_without_duplicates():
    for module in (mmi_lab, pipeline):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
    namespace = {}
    exec("from mmi_lab import *", namespace)
    assert set(mmi_lab.__all__) <= namespace.keys()
