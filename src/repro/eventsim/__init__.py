"""Old home of the split-window machine, now :mod:`repro.splitwindow`.

Only the :mod:`repro.eventsim.splitwindow` alias remains.
"""
