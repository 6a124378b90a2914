"""``EventSplitWindowProcessor``: the old name of the split-window machine.

``bench/child.py``, ``bench/tracing.py`` and ``bench/tests/test_bench.py``
import it; remove it once the benchmark drops its ``eventsim`` layer.
"""

from repro.splitwindow.processor import SplitWindowProcessor

EventSplitWindowProcessor = SplitWindowProcessor
