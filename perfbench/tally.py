"""Outcome counts of one timed phase."""


class Tally:
    """Every operation attempted ends ``ok``, ``shed``, ``error`` or ``wrong``."""

    OUTCOMES = ("ok", "shed", "error", "wrong")

    def __init__(self):
        self.attempted = 0
        self.ok = self.shed = self.error = self.wrong = 0

    def add(self, outcome):
        setattr(self, outcome, getattr(self, outcome) + 1)
        self.attempted += 1
        return outcome == "ok"

    @property
    def failed(self):
        return self.shed + self.error + self.wrong

    def as_dict(self):
        return {"attempted": self.attempted,
                **{name: getattr(self, name) for name in self.OUTCOMES}}
